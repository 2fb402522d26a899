#ifndef GOALEX_INFER_PACKED_H_
#define GOALEX_INFER_PACKED_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/transformer.h"
#include "obs/metrics.h"
#include "tensor/qlinear.h"
#include "tensor/tensor.h"

namespace goalex::infer {

/// The inference engine (DESIGN.md §14). Variable-length sequences are
/// bucketed by length into capacity-bounded chunks and laid out token-major
/// with a per-sequence offsets table; every layer then runs as one
/// padding-free GEMM over the packed token axis, with attention streaming
/// per-sequence tiles (tensor/packed.h). A single sequence is simply a
/// one-member chunk. Float outputs are bit-identical per sequence to the
/// autograd evaluation path (the classifiers' ForwardLogits), which stays
/// the parity oracle; the optional int8 mode trades exactness for
/// throughput.

/// One packed batch: token ids for all member sequences back to back.
/// Sequence s (0 ≤ s < size()) owns ids[offsets[s]..offsets[s+1]) and came
/// from the caller's sequence index `sequence[s]`.
struct PackedChunk {
  std::vector<int32_t> ids;      ///< [tokens()] packed token ids.
  std::vector<int64_t> offsets;  ///< [size() + 1] boundaries into ids.
  std::vector<size_t> sequence;  ///< [size()] caller index per member.

  int64_t tokens() const { return static_cast<int64_t>(ids.size()); }
  int64_t size() const { return static_cast<int64_t>(sequence.size()); }
};

/// Buckets `sequences` by token length into chunks of at most
/// `chunk_tokens` packed tokens. Sequences are truncated to `max_seq_len`
/// (matching the encoder's own truncation) and empty sequences are skipped
/// — callers get no labels for them. Packing is deterministic: a stable
/// sort by length (ties keep submission order) followed by greedy
/// capacity-bounded fill, so equal inputs always produce equal chunks. A
/// single sequence longer than `chunk_tokens` is admitted as an oversize
/// chunk of its own rather than rejected.
std::vector<PackedChunk> PackByLength(
    const std::vector<const std::vector<int32_t>*>& sequences,
    int64_t max_seq_len, int64_t chunk_tokens);

struct PackedEngineOptions {
  /// Packed-token capacity per chunk. Bounds peak activation memory
  /// (roughly chunk_tokens · (7·d_model + ffn_dim + head columns) floats)
  /// and is the denominator of the batch-fill metric.
  int64_t chunk_tokens = 512;
  /// Run the six per-layer projections as int8 kernels (tensor/qlinear.h)
  /// instead of float GEMMs. Embeddings, layer norms, attention, and the
  /// classifier head stay float.
  bool quantize_int8 = false;
};

/// Compiled packed-batch executor over a trained classifier: one engine for
/// both head types (per-token labels from a TokenClassifier, one
/// mean-pooled class per sequence from a SequenceClassifier) and both
/// precisions. Encoder weights are borrowed (pinned via shared tensor
/// storage), but the engine also *derives* state at construction — the
/// zero-padded classifier head and, in int8 mode, the quantized codes — so
/// a PackedEngine must be rebuilt after any weight update (the extractor
/// rebuilds per training epoch). Stateless after construction: all methods
/// are const and safe to call concurrently, each call owns its scratch.
class PackedEngine {
 public:
  /// Token head: logits and labels per token.
  PackedEngine(const nn::TokenClassifier& model, PackedEngineOptions options);
  /// Sequence head: the final hidden states are mean-pooled per member
  /// sequence, giving one logits row and one class per member.
  PackedEngine(const nn::SequenceClassifier& model,
               PackedEngineOptions options);

  /// Argmax labels for every member of `chunk`, written to
  /// out[chunk.sequence[s]] (slots for other chunks are untouched, so
  /// disjoint chunks can predict into one vector concurrently): one label
  /// per token for a token head, a single class for a sequence head.
  void PredictChunk(const PackedChunk& chunk,
                    std::vector<std::vector<int32_t>>& out) const;

  /// Packs `sequences` (PackByLength) and predicts every chunk. Entry i of
  /// the result holds the labels of sequences[i] (see PredictChunk); empty
  /// sequences yield empty label vectors.
  std::vector<std::vector<int32_t>> PredictBatch(
      const std::vector<const std::vector<int32_t>*>& sequences) const;

  /// Raw packed logits for one chunk, row-major with logit_cols() columns,
  /// alive while the returned storage is held: chunk.tokens() rows for a
  /// token head, chunk.size() rows (member s at row s) for a sequence
  /// head. Columns past num_labels() are zero padding (the head is padded
  /// to a SIMD-friendly width); argmax must scan only the first
  /// num_labels() columns.
  struct ChunkLogits {
    std::shared_ptr<std::vector<float>> storage;
    const float* data = nullptr;
    int64_t cols = 0;
  };
  ChunkLogits ForwardChunk(const PackedChunk& chunk) const;

  int64_t chunk_tokens() const { return options_.chunk_tokens; }
  bool quantized() const { return options_.quantize_int8; }
  int32_t num_labels() const { return num_labels_; }
  int64_t logit_cols() const { return head_cols_; }
  int64_t max_seq_len() const { return config_.max_seq_len; }

 private:
  PackedEngine(const nn::TransformerEncoder& encoder, const nn::Linear& head,
               bool mean_pool, PackedEngineOptions options);

  struct LayerWeights {
    const float* ln1_gamma = nullptr;
    const float* ln1_beta = nullptr;
    const float* qw = nullptr;
    const float* qb = nullptr;
    const float* kw = nullptr;
    const float* kb = nullptr;
    const float* vw = nullptr;
    const float* vb = nullptr;
    const float* ow = nullptr;
    const float* ob = nullptr;
    const float* ln2_gamma = nullptr;
    const float* ln2_beta = nullptr;
    const float* f1w = nullptr;
    const float* f1b = nullptr;
    const float* f2w = nullptr;
    const float* f2b = nullptr;
  };
  struct QuantizedLayer {
    tensor::QuantizedLinear q, k, v, o, f1, f2;
  };

  nn::TransformerConfig config_;
  PackedEngineOptions options_;
  /// Sequence head: mean-pool each member's final states before the head.
  bool mean_pool_ = false;
  int32_t num_labels_ = 0;
  int64_t head_cols_ = 0;

  /// Shared-storage copies keeping every borrowed weight pointer alive.
  std::vector<tensor::Tensor> pins_;
  const float* token_embedding_ = nullptr;
  const float* position_embedding_ = nullptr;
  std::vector<LayerWeights> layers_;
  const float* final_gamma_ = nullptr;
  const float* final_beta_ = nullptr;
  /// Owned zero-padded head ([d_model, head_cols_] / [head_cols_]); used in
  /// both float and int8 modes so the logit layout never depends on the
  /// quantization knob.
  std::vector<float> head_weight_;
  std::vector<float> head_bias_;
  std::vector<QuantizedLayer> quantized_;

  obs::Counter* chunks_ = nullptr;
  obs::Counter* packed_tokens_ = nullptr;
  obs::Gauge* tokens_per_sec_ = nullptr;
  obs::Histogram* batch_fill_ = nullptr;
  obs::Histogram* occupancy_ = nullptr;
};

}  // namespace goalex::infer

#endif  // GOALEX_INFER_PACKED_H_

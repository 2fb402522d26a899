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

/// The inference engine (DESIGN.md §14). One sequence per call, laid out
/// token-major with an offsets table; every layer runs as one
/// padding-free GEMM over the token axis, with attention streaming tiles
/// (tensor/packed.h). Float outputs are bit-identical to the autograd
/// evaluation path (the classifiers' ForwardLogits), which stays the
/// parity oracle; the optional int8 mode trades exactness for throughput.

struct PackedEngineOptions {
  /// Run the six per-layer projections as int8 kernels (tensor/qlinear.h)
  /// instead of float GEMMs. Embeddings, layer norms, attention, and the
  /// classifier head stay float.
  bool quantize_int8 = false;
};

/// Compiled executor over a trained classifier: one engine for both head
/// types (per-token labels from a TokenClassifier, one mean-pooled class
/// per sequence from a SequenceClassifier) and both precisions. Encoder
/// weights are borrowed (pinned via shared tensor storage), but the engine
/// also *derives* state at construction — the
/// zero-padded classifier head and, in int8 mode, the quantized codes — so
/// a PackedEngine must be rebuilt after any weight update (the extractor
/// rebuilds per training epoch). Stateless after construction: all methods
/// are const and safe to call concurrently, each call owns its scratch.
class PackedEngine {
 public:
  /// Token head: logits and labels per token.
  PackedEngine(const nn::TokenClassifier& model, PackedEngineOptions options);
  /// Sequence head: the final hidden states are mean-pooled, giving one
  /// logits row and one class per sequence.
  PackedEngine(const nn::SequenceClassifier& model,
               PackedEngineOptions options);

  /// Argmax labels of `ids`, truncated to max_seq_len() like the encoder:
  /// one label per token for a token head, a single class for a sequence
  /// head. Empty input yields no labels.
  std::vector<int32_t> Predict(const std::vector<int32_t>& ids) const;

  /// Raw logits of `ids` (the parity oracle's view), row-major with
  /// logit_cols() columns, alive while `storage` is held: one row per
  /// (truncated) token for a token head, one pooled row for a sequence
  /// head. Columns past num_labels() are zero padding (the head is padded
  /// to a SIMD-friendly width); argmax must scan only the first
  /// num_labels() columns. Empty input yields rows == 0 and a null data.
  struct Logits {
    std::shared_ptr<std::vector<float>> storage;
    const float* data = nullptr;
    int64_t rows = 0;
    int64_t cols = 0;
  };
  Logits Forward(const std::vector<int32_t>& ids) const;

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
  /// Sequence head: mean-pool the final states before the head.
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

  obs::Counter* calls_ = nullptr;
  obs::Counter* packed_tokens_ = nullptr;
  obs::Gauge* tokens_per_sec_ = nullptr;
};

}  // namespace goalex::infer

#endif  // GOALEX_INFER_PACKED_H_

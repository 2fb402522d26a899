#include "infer/packed.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "nn/linear.h"
#include "tensor/forward.h"
#include "tensor/packed.h"
#include "tensor/scratch.h"

namespace goalex::infer {
namespace {

constexpr float kLayerNormEps = 1e-5f;

int64_t RoundUp8(int64_t n) { return (n + 7) / 8 * 8; }

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::vector<PackedChunk> PackByLength(
    const std::vector<const std::vector<int32_t>*>& sequences,
    int64_t max_seq_len, int64_t chunk_tokens) {
  GOALEX_CHECK_GT(max_seq_len, 0);
  GOALEX_CHECK_GT(chunk_tokens, 0);
  // (length, caller index) for every non-empty sequence, stable-sorted by
  // length: equal lengths keep submission order, so packing is a pure
  // function of the input.
  std::vector<std::pair<int64_t, size_t>> order;
  order.reserve(sequences.size());
  for (size_t i = 0; i < sequences.size(); ++i) {
    GOALEX_CHECK(sequences[i] != nullptr);
    const int64_t len = std::min<int64_t>(
        static_cast<int64_t>(sequences[i]->size()), max_seq_len);
    if (len > 0) order.emplace_back(len, i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const std::pair<int64_t, size_t>& a,
                      const std::pair<int64_t, size_t>& b) {
                     return a.first < b.first;
                   });
  std::vector<PackedChunk> chunks;
  PackedChunk current;
  current.offsets.push_back(0);
  auto flush = [&chunks, &current]() {
    if (current.size() == 0) return;
    chunks.push_back(std::move(current));
    current = PackedChunk();
    current.offsets.push_back(0);
  };
  for (const auto& [len, index] : order) {
    // A sequence longer than the capacity still has to run somewhere; it
    // gets an oversize chunk of its own (flushed by the next iteration).
    if (current.tokens() + len > chunk_tokens && current.size() > 0) flush();
    const std::vector<int32_t>& ids = *sequences[index];
    current.ids.insert(current.ids.end(), ids.begin(), ids.begin() + len);
    current.offsets.push_back(current.tokens());
    current.sequence.push_back(index);
  }
  flush();
  return chunks;
}

PackedEngine::PackedEngine(const nn::TokenClassifier& model,
                           PackedEngineOptions options)
    : PackedEngine(model.encoder(), model.head(), /*mean_pool=*/false,
                   options) {}

PackedEngine::PackedEngine(const nn::SequenceClassifier& model,
                           PackedEngineOptions options)
    : PackedEngine(model.encoder(), model.head(), /*mean_pool=*/true,
                   options) {}

PackedEngine::PackedEngine(const nn::TransformerEncoder& encoder,
                           const nn::Linear& head, bool mean_pool,
                           PackedEngineOptions options)
    : config_(encoder.config()),
      options_(options),
      mean_pool_(mean_pool),
      num_labels_(static_cast<int32_t>(head.out_features())) {
  GOALEX_CHECK_GT(options_.chunk_tokens, 0);
  GOALEX_CHECK_GT(num_labels_, 0);
  auto pin = [this](const tensor::Var& var) -> const float* {
    pins_.push_back(var->value());
    return pins_.back().data();
  };
  token_embedding_ = pin(encoder.token_embedding());
  position_embedding_ = pin(encoder.position_embedding());
  for (const auto& layer : encoder.layers()) {
    LayerWeights lw;
    lw.ln1_gamma = pin(layer->ln1_gamma());
    lw.ln1_beta = pin(layer->ln1_beta());
    lw.qw = pin(layer->q_proj().weight());
    lw.qb = pin(layer->q_proj().bias());
    lw.kw = pin(layer->k_proj().weight());
    lw.kb = pin(layer->k_proj().bias());
    lw.vw = pin(layer->v_proj().weight());
    lw.vb = pin(layer->v_proj().bias());
    lw.ow = pin(layer->o_proj().weight());
    lw.ob = pin(layer->o_proj().bias());
    lw.ln2_gamma = pin(layer->ln2_gamma());
    lw.ln2_beta = pin(layer->ln2_beta());
    lw.f1w = pin(layer->ffn_in().weight());
    lw.f1b = pin(layer->ffn_in().bias());
    lw.f2w = pin(layer->ffn_out().weight());
    lw.f2b = pin(layer->ffn_out().bias());
    layers_.push_back(lw);
  }
  final_gamma_ = pin(encoder.final_gamma());
  final_beta_ = pin(encoder.final_beta());

  // The head is copied rather than borrowed: its num_labels columns are
  // zero-padded to a multiple of 8 so logits rows stay SIMD-width and the
  // one odd-shaped GEMM in the network hits the vector path. Padding
  // columns only append outputs — the real columns' chains are untouched,
  // so padded-head logits are bit-identical in [0, num_labels). Both modes
  // use this same padded float head (and the same stride), keeping int8's
  // logit layout equal to float's.
  const int64_t d = config_.d_model;
  head_cols_ = RoundUp8(num_labels_);
  const float* hw = head.weight()->value().data();
  const float* hb = head.bias()->value().data();
  head_weight_.assign(d * head_cols_, 0.0f);
  for (int64_t l = 0; l < d; ++l) {
    for (int64_t j = 0; j < num_labels_; ++j) {
      head_weight_[l * head_cols_ + j] = hw[l * num_labels_ + j];
    }
  }
  head_bias_.assign(head_cols_, 0.0f);
  std::copy(hb, hb + num_labels_, head_bias_.begin());

  if (options_.quantize_int8) {
    const int64_t ffn = config_.ffn_dim;
    for (const LayerWeights& lw : layers_) {
      QuantizedLayer ql;
      ql.q = tensor::QuantizeLinear(lw.qw, lw.qb, d, d);
      ql.k = tensor::QuantizeLinear(lw.kw, lw.kb, d, d);
      ql.v = tensor::QuantizeLinear(lw.vw, lw.vb, d, d);
      ql.o = tensor::QuantizeLinear(lw.ow, lw.ob, d, d);
      ql.f1 = tensor::QuantizeLinear(lw.f1w, lw.f1b, d, ffn);
      ql.f2 = tensor::QuantizeLinear(lw.f2w, lw.f2b, ffn, d);
      quantized_.push_back(std::move(ql));
    }
  }

  if (obs::Active()) {
    auto& registry = obs::MetricsRegistry::Default();
    registry.GetCounter("infer.packed.engines")->Increment();
    chunks_ = registry.GetCounter("infer.packed.chunks");
    packed_tokens_ = registry.GetCounter("infer.packed.tokens");
    tokens_per_sec_ = registry.GetGauge("infer.packed.tokens_per_sec");
    // Fill = packed tokens / chunk capacity (can exceed 1 only for an
    // oversize singleton); occupancy = sequences per chunk.
    static const std::vector<double> kFillBounds = {0.1, 0.25, 0.5, 0.75,
                                                    0.9, 0.95, 1.0};
    batch_fill_ = registry.GetHistogram("infer.packed.batch_fill",
                                        kFillBounds);
    occupancy_ = registry.GetHistogram("infer.packed.bucket_occupancy",
                                       obs::DefaultSizeBounds());
  }
}

PackedEngine::ChunkLogits PackedEngine::ForwardChunk(
    const PackedChunk& chunk) const {
  ChunkLogits result;
  result.cols = head_cols_;
  const int64_t total = chunk.tokens();
  const int64_t nseq = chunk.size();
  if (total == 0) return result;
  GOALEX_CHECK_EQ(static_cast<int64_t>(chunk.offsets.size()), nseq + 1);
  const double start = NowSeconds();

  const int64_t d = config_.d_model;
  const int64_t ffn = config_.ffn_dim;
  const int64_t dh = d / config_.heads;
  int64_t max_t = 0;
  for (int64_t s = 0; s < nseq; ++s) {
    const int64_t t = chunk.offsets[s + 1] - chunk.offsets[s];
    GOALEX_CHECK_GT(t, 0);
    GOALEX_CHECK_LE(t, static_cast<int64_t>(config_.max_seq_len));
    max_t = std::max(max_t, t);
  }

  // One storage block for all packed activations + attention scratch,
  // drawn through the thread's scratch allocator: inside an exec node
  // marked uses_scratch this is a pooled lease counted against
  // exec.scratch.peak_bytes, elsewhere a plain zeroed allocation. A
  // sequence head has one logits row per member, fed by one pooled row.
  const int64_t logit_rows = mean_pool_ ? nseq : total;
  size_t off = 0;
  auto take = [&off](int64_t n) {
    size_t r = off;
    off += static_cast<size_t>(n);
    return r;
  };
  const size_t o_x = take(total * d);
  const size_t o_h = take(total * d);
  const size_t o_q = take(total * d);
  const size_t o_k = take(total * d);
  const size_t o_v = take(total * d);
  const size_t o_attn = take(total * d);
  const size_t o_x1 = take(total * d);
  const size_t o_f1 = take(total * ffn);
  const size_t o_pooled = take(mean_pool_ ? nseq * d : 0);
  const size_t o_logits = take(logit_rows * head_cols_);
  const size_t o_kat = take(dh * max_t);
  const size_t o_scores = take(tensor::kPackedAttentionRowBlock * max_t);
  result.storage = tensor::AllocateTensorStorage(off);
  float* base = result.storage->data();
  float* x = base + o_x;
  float* h = base + o_h;
  float* q = base + o_q;
  float* k = base + o_k;
  float* v = base + o_v;
  float* attn = base + o_attn;
  float* x1 = base + o_x1;
  float* f1 = base + o_f1;
  float* pooled = base + o_pooled;
  float* logits = base + o_logits;
  float* kat = base + o_kat;
  float* scores = base + o_scores;

  // Embeddings: the position ramp restarts at each sequence boundary.
  for (int64_t s = 0; s < nseq; ++s) {
    const int64_t seq_base = chunk.offsets[s];
    const int64_t t = chunk.offsets[s + 1] - seq_base;
    tensor::EmbedSumForward(token_embedding_, config_.vocab_size,
                            position_embedding_, chunk.ids.data() + seq_base,
                            t, d, x + seq_base * d);
  }

  // Pre-LN encoder layers over the packed token axis. Only attention sees
  // the offsets table; everything else is one dense GEMM per op with the
  // residual adds and GELU fused into the producing linear's stores.
  for (size_t li = 0; li < layers_.size(); ++li) {
    const LayerWeights& lw = layers_[li];
    tensor::LayerNormPackedForward(x, lw.ln1_gamma, lw.ln1_beta, h, total, d,
                                   kLayerNormEps);
    if (options_.quantize_int8) {
      const QuantizedLayer& ql = quantized_[li];
      tensor::QuantizedQkvForward(h, ql.q, ql.k, ql.v, q, k, v, total);
      tensor::AttentionPackedForward(q, k, v, attn, chunk.offsets.data(),
                                     nseq, d, config_.heads, kat, scores);
      tensor::QuantizedLinearForward(attn, ql.o, x1, total,
                                     tensor::LinearEpilogue::kResidual, x);
      tensor::LayerNormPackedForward(x1, lw.ln2_gamma, lw.ln2_beta, h, total,
                                     d, kLayerNormEps);
      tensor::QuantizedLinearForward(h, ql.f1, f1, total,
                                     tensor::LinearEpilogue::kGelu, nullptr);
      tensor::QuantizedLinearForward(f1, ql.f2, x, total,
                                     tensor::LinearEpilogue::kResidual, x1);
    } else {
      tensor::LinearForward(h, lw.qw, lw.qb, q, total, d, d);
      tensor::LinearForward(h, lw.kw, lw.kb, k, total, d, d);
      tensor::LinearForward(h, lw.vw, lw.vb, v, total, d, d);
      tensor::AttentionPackedForward(q, k, v, attn, chunk.offsets.data(),
                                     nseq, d, config_.heads, kat, scores);
      tensor::LinearResidualForward(attn, lw.ow, lw.ob, /*residual=*/x, x1,
                                    total, d, d);
      tensor::LayerNormPackedForward(x1, lw.ln2_gamma, lw.ln2_beta, h, total,
                                     d, kLayerNormEps);
      tensor::LinearGeluForward(h, lw.f1w, lw.f1b, f1, total, d, ffn);
      tensor::LinearResidualForward(f1, lw.f2w, lw.f2b, /*residual=*/x1, x,
                                    total, ffn, d);
    }
  }
  tensor::LayerNormPackedForward(x, final_gamma_, final_beta_, h, total, d,
                                 kLayerNormEps);
  const float* head_in = h;
  if (mean_pool_) {
    // The tape's MeanRows, one member at a time.
    for (int64_t s = 0; s < nseq; ++s) {
      tensor::MeanRowsForward(h + chunk.offsets[s] * d, pooled + s * d,
                              chunk.offsets[s + 1] - chunk.offsets[s], d);
    }
    head_in = pooled;
  }
  tensor::LinearForward(head_in, head_weight_.data(), head_bias_.data(),
                        logits, logit_rows, d, head_cols_);
  result.data = logits;

  if (chunks_ != nullptr) {
    chunks_->Increment();
    packed_tokens_->Increment(static_cast<uint64_t>(total));
    const double elapsed = NowSeconds() - start;
    if (elapsed > 0.0) {
      tokens_per_sec_->Set(static_cast<double>(total) / elapsed);
    }
    batch_fill_->Observe(static_cast<double>(total) /
                         static_cast<double>(options_.chunk_tokens));
    occupancy_->Observe(static_cast<double>(nseq));
  }
  return result;
}

void PackedEngine::PredictChunk(const PackedChunk& chunk,
                                std::vector<std::vector<int32_t>>& out) const {
  const ChunkLogits logits = ForwardChunk(chunk);
  for (int64_t s = 0; s < chunk.size(); ++s) {
    // A member's logits rows: its token rows, or its one pooled row.
    const int64_t first = mean_pool_ ? s : chunk.offsets[s];
    const int64_t rows =
        mean_pool_ ? 1 : chunk.offsets[s + 1] - chunk.offsets[s];
    std::vector<int32_t>& labels = out[chunk.sequence[s]];
    labels.resize(rows);
    for (int64_t i = 0; i < rows; ++i) {
      // Scan only the real columns; the padded tail is zeros.
      labels[i] = tensor::ArgmaxRow(logits.data + (first + i) * logits.cols,
                                    num_labels_);
    }
  }
}

std::vector<std::vector<int32_t>> PackedEngine::PredictBatch(
    const std::vector<const std::vector<int32_t>*>& sequences) const {
  std::vector<std::vector<int32_t>> out(sequences.size());
  for (const PackedChunk& chunk : PackByLength(
           sequences, config_.max_seq_len, options_.chunk_tokens)) {
    PredictChunk(chunk, out);
  }
  return out;
}

}  // namespace goalex::infer

#ifndef GOALEX_TENSOR_FORWARD_H_
#define GOALEX_TENSOR_FORWARD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace goalex::tensor {

/// Forward-pass math shared by the autograd ops (tensor/ops.cc) and the
/// packed inference engine (src/infer, via tensor/packed.h). The engine
/// calls these functions or kernels that replay their exact per-output
/// float chains, so its outputs are bit-identical to the tape's by
/// construction — the parity tests then verify it end to end.
///
/// All buffers are dense row-major float; output buffers may be
/// uninitialized unless a function documents otherwise.

/// out[i] = a[i] + b[i] over n entries (elementwise residual add).
void AddForward(const float* a, const float* b, float* out, int64_t n);

/// Affine layer forward: out[m, out_dim] = x[m, in] * w[in, out_dim] + bias.
/// Matches the tape's MatMul-then-AddBias composition exactly (full GEMM
/// accumulation first, bias added afterwards).
void LinearForward(const float* x, const float* w, const float* bias,
                   float* out, int64_t m, int64_t in, int64_t out_dim);

/// Affine layer with the tanh-GELU epilogue fused into the output stores:
/// out = gelu(x W + bias). Bit-identical to LinearForward followed by
/// GeluForward — the accumulation chains are LinearForward's and the GELU
/// is applied to the same post-bias float it would otherwise reload.
void LinearGeluForward(const float* x, const float* w, const float* bias,
                       float* out, int64_t m, int64_t in, int64_t out_dim);

/// Affine layer with a residual add fused into the output stores:
/// out = residual + (x W + bias), residual shaped like out. Bit-identical
/// to LinearForward followed by AddForward(residual, linear_out).
void LinearResidualForward(const float* x, const float* w, const float* bias,
                           const float* residual, float* out, int64_t m,
                           int64_t in, int64_t out_dim);

/// GELU (tanh approximation), elementwise over n entries.
void GeluForward(const float* x, float* out, int64_t n);

/// Layer normalization over the last axis of x[m, n] with gain gamma[n] and
/// offset beta[n]. When `xhat` / `inv_std` are non-null (training tape),
/// the normalized activations [m, n] and per-row 1/std [m] are captured for
/// the backward pass.
void LayerNormForward(const float* x, const float* gamma, const float* beta,
                      float* out, int64_t m, int64_t n, float eps,
                      float* xhat, float* inv_std);

/// Reusable per-head scratch for AttentionForward. One instance per worker;
/// Resize is cheap once warm (vectors only grow).
struct AttentionScratch {
  std::vector<float> qa, ka, va, oa;  ///< [t, head_dim] head slices.
  std::vector<float> kat;             ///< [head_dim, t] Ka transposed.
  std::vector<float> scores;          ///< [t, t] pre-softmax logits.

  void Resize(int64_t t, int64_t head_dim) {
    size_t slice = static_cast<size_t>(t * head_dim);
    if (qa.size() < slice) {
      qa.resize(slice);
      ka.resize(slice);
      va.resize(slice);
      oa.resize(slice);
      kat.resize(slice);
    }
    size_t sq = static_cast<size_t>(t * t);
    if (scores.size() < sq) scores.resize(sq);
  }
};

/// Multi-head scaled dot-product self-attention over one sequence:
/// q, k, v, out are [t, d] with d divisible by `heads`. When `probs` is
/// non-null it receives the per-head softmax matrices, laid out
/// [heads, t, t] contiguously (captured by the tape for backward).
void AttentionForward(const float* q, const float* k, const float* v,
                      float* out, int64_t t, int64_t d, int32_t heads,
                      float* probs, AttentionScratch& scratch);

/// Token + position embedding sum: out[i, :] = token_table[ids[i], :] +
/// pos_table[i, :] for i in [0, t). Ids must be in range (CHECKed).
void EmbedSumForward(const float* token_table, int64_t vocab,
                     const float* pos_table, const int32_t* ids, int64_t t,
                     int64_t d, float* out);

/// Mean over rows: out[1, n] = mean of x[m, n] rows. Matches the tape's
/// accumulate-then-scale order exactly.
void MeanRowsForward(const float* x, float* out, int64_t m, int64_t n);

/// Argmax over one row of n entries (first maximum wins).
int32_t ArgmaxRow(const float* row, int64_t n);

}  // namespace goalex::tensor

#endif  // GOALEX_TENSOR_FORWARD_H_

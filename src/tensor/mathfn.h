#ifndef GOALEX_TENSOR_MATHFN_H_
#define GOALEX_TENSOR_MATHFN_H_

#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace goalex::tensor {

/// Fast float transcendentals shared by every execution strategy (autograd
/// forward, autograd backward, and the packed inference engine). The
/// scalar and AVX2 variants perform the same IEEE-defined operation
/// sequence (fmaf <-> vfmadd lane, floor <-> roundps, div <-> divps), so a
/// value computed 8-wide is bit-identical to the scalar tail — callers can
/// mix them freely inside one array without introducing lane-dependent
/// results. Accuracy: ~2 ulp for Expf, ~1e-7 absolute for Tanhf, which is
/// orders of magnitude below both the finite-difference tolerance of the
/// gradient checks and any effect on model accuracy.
///
/// Cephes-style range reduction: e^x = 2^n * e^r with n = round(x/ln 2),
/// r in [-ln2/2, ln2/2], and a degree-5 minimax polynomial for e^r.

namespace mathfn_detail {
constexpr float kExpHi = 88.3762626647949f;
constexpr float kExpLo = -87.3365478515625f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kExpC0 = 1.9875691500e-4f;
constexpr float kExpC1 = 1.3981999507e-3f;
constexpr float kExpC2 = 8.3334519073e-3f;
constexpr float kExpC3 = 4.1665795894e-2f;
constexpr float kExpC4 = 1.6666665459e-1f;
constexpr float kExpC5 = 5.0000001201e-1f;
}  // namespace mathfn_detail

/// e^x for finite float x; clamps to the representable range (never
/// overflows to inf, never underflows below ~1.2e-38).
inline float FastExpf(float x) {
  using namespace mathfn_detail;
  x = x > kExpHi ? kExpHi : x;
  x = x < kExpLo ? kExpLo : x;
  float n = std::floor(std::fmaf(x, kLog2e, 0.5f));
  // r = x - n*ln2 in two steps for extra bits of ln2.
  float r = std::fmaf(-n, kLn2Hi, x);
  r = std::fmaf(-n, kLn2Lo, r);
  float y = kExpC0;
  y = std::fmaf(y, r, kExpC1);
  y = std::fmaf(y, r, kExpC2);
  y = std::fmaf(y, r, kExpC3);
  y = std::fmaf(y, r, kExpC4);
  y = std::fmaf(y, r, kExpC5);
  y = std::fmaf(y, r * r, r);
  y += 1.0f;
  // 2^n via exponent bits; n is integral in [-126, 128) after the clamp.
  uint32_t bits = static_cast<uint32_t>(static_cast<int32_t>(n) + 127) << 23;
  float scale;
  std::memcpy(&scale, &bits, sizeof(scale));
  return y * scale;
}

/// tanh(x) = sign(x) * (1 - t) / (1 + t) with t = e^(-2|x|); the exp
/// argument is always <= 0 so the computation never overflows, and 1 - t is
/// exact (Sterbenz) for t >= 0.5, keeping small-|x| results accurate.
inline float FastTanhf(float x) {
  float a = std::fabs(x);
  float t = FastExpf(-2.0f * a);
  float r = (1.0f - t) / (1.0f + t);
  return std::copysign(r, x);
}

constexpr float kGeluCoef = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluCubic = 0.044715f;

/// The tanh argument of the GELU approximation,
/// sqrt(2/pi) * (v + 0.044715 v^3), in the exact operation order the
/// vectorized GeluForward uses — shared with the backward pass so forward
/// and analytic gradient see the same tanh input.
inline float GeluTanhArg(float v) {
  float cvv = (kGeluCubic * v) * v;
  return kGeluCoef * std::fmaf(cvv, v, v);
}

#if defined(__AVX2__) && defined(__FMA__)

/// 8-lane FastExpf; each lane is bit-identical to the scalar function.
inline __m256 FastExpf8(__m256 x) {
  using namespace mathfn_detail;
  x = _mm256_min_ps(x, _mm256_set1_ps(kExpHi));
  x = _mm256_max_ps(x, _mm256_set1_ps(kExpLo));
  __m256 n = _mm256_floor_ps(
      _mm256_fmadd_ps(x, _mm256_set1_ps(kLog2e), _mm256_set1_ps(0.5f)));
  __m256 r = _mm256_fnmadd_ps(n, _mm256_set1_ps(kLn2Hi), x);
  r = _mm256_fnmadd_ps(n, _mm256_set1_ps(kLn2Lo), r);
  __m256 y = _mm256_set1_ps(kExpC0);
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpC1));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpC2));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpC3));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpC4));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpC5));
  y = _mm256_fmadd_ps(y, _mm256_mul_ps(r, r), r);
  y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));
  __m256i bits = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvttps_epi32(n), _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(bits));
}

/// 8-lane FastTanhf; each lane is bit-identical to the scalar function.
inline __m256 FastTanhf8(__m256 x) {
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  __m256 a = _mm256_andnot_ps(sign_mask, x);
  __m256 t = FastExpf8(_mm256_mul_ps(a, _mm256_set1_ps(-2.0f)));
  const __m256 one = _mm256_set1_ps(1.0f);
  __m256 r = _mm256_div_ps(_mm256_sub_ps(one, t), _mm256_add_ps(one, t));
  return _mm256_or_ps(r, _mm256_and_ps(sign_mask, x));
}

#endif  // __AVX2__ && __FMA__

}  // namespace goalex::tensor

#endif  // GOALEX_TENSOR_MATHFN_H_

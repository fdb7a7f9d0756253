#include "core/fused.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/projection.hpp"

namespace keybin2::core {

namespace {

// Chunks below these sizes are not worth a worker wake-up; they also bound
// the number of count shards pass B has to zero and merge.
constexpr std::size_t kProjectGrain = 1024;
constexpr std::size_t kBinGrain = 4096;

// ---- Compile-time-RP row kernels -----------------------------------------
//
// The projected dimensionality is tiny (the paper's rule gives 2-9), so the
// hot loops are specialized on it: with RP a compile-time constant the
// per-row accumulators live in registers, the j-loops fully unroll, and the
// divisions in the key computation pipeline independently instead of
// serializing through one memory-carried chain. Every specialization
// performs the IDENTICAL per-lane operation sequence as the generic code
// (same i-order, same mul-then-add, zero-skip preserved, no FP contraction —
// fused.cpp is built with -ffp-contract=off), so results stay bit-identical.

template <int RP>
void project_envelope_rows(const double* __restrict pts, std::size_t in_dims,
                           const double* __restrict a, double* __restrict out,
                           std::size_t begin, std::size_t end,
                           double* __restrict lo, double* __restrict hi) {
  double vlo[RP], vhi[RP];
  for (int j = 0; j < RP; ++j) {
    vlo[j] = lo[j];
    vhi[j] = hi[j];
  }
  // Four points in flight: each point's accumulator chain is a strict
  // k-ordered sequence of adds (the bit-identity contract), so a single
  // point is latency-bound on vaddpd; four independent chains fill the
  // pipeline. Lane order within each point is untouched.
  std::size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    const double* r0 = pts + i * in_dims;
    const double* r1 = r0 + in_dims;
    const double* r2 = r1 + in_dims;
    const double* r3 = r2 + in_dims;
    double a0[RP] = {}, a1[RP] = {}, a2[RP] = {}, a3[RP] = {};
    for (std::size_t k = 0; k < in_dims; ++k) {
      const double* ar = a + k * static_cast<std::size_t>(RP);
      const double x0 = r0[k], x1 = r1[k], x2 = r2[k], x3 = r3[k];
      if (x0 != 0.0) {  // same zero-skip as project_point
        for (int j = 0; j < RP; ++j) a0[j] += x0 * ar[j];
      }
      if (x1 != 0.0) {
        for (int j = 0; j < RP; ++j) a1[j] += x1 * ar[j];
      }
      if (x2 != 0.0) {
        for (int j = 0; j < RP; ++j) a2[j] += x2 * ar[j];
      }
      if (x3 != 0.0) {
        for (int j = 0; j < RP; ++j) a3[j] += x3 * ar[j];
      }
    }
    double* dst = out + i * static_cast<std::size_t>(RP);
    for (int j = 0; j < RP; ++j) {  // envelope folds stay in row order
      dst[j] = a0[j];
      dst[RP + j] = a1[j];
      dst[2 * RP + j] = a2[j];
      dst[3 * RP + j] = a3[j];
      vlo[j] = std::min(std::min(std::min(std::min(vlo[j], a0[j]), a1[j]),
                                 a2[j]),
                        a3[j]);
      vhi[j] = std::max(std::max(std::max(std::max(vhi[j], a0[j]), a1[j]),
                                 a2[j]),
                        a3[j]);
    }
  }
  for (; i < end; ++i) {
    const double* row = pts + i * in_dims;
    double acc[RP] = {};
    for (std::size_t k = 0; k < in_dims; ++k) {
      const double xi = row[k];
      if (xi == 0.0) continue;
      const double* ar = a + k * static_cast<std::size_t>(RP);
      for (int j = 0; j < RP; ++j) acc[j] += xi * ar[j];
    }
    double* dst = out + i * static_cast<std::size_t>(RP);
    for (int j = 0; j < RP; ++j) {
      dst[j] = acc[j];
      vlo[j] = std::min(vlo[j], acc[j]);
      vhi[j] = std::max(vhi[j], acc[j]);
    }
  }
  for (int j = 0; j < RP; ++j) {
    lo[j] = vlo[j];
    hi[j] = vhi[j];
  }
}

void project_envelope_rows_generic(const double* pts, std::size_t in_dims,
                                   std::size_t rp, const double* a,
                                   double* out, std::size_t begin,
                                   std::size_t end, double* lo, double* hi) {
  for (std::size_t i = begin; i < end; ++i) {
    const double* row = pts + i * in_dims;
    double* dst = out + i * rp;
    for (std::size_t j = 0; j < rp; ++j) dst[j] = 0.0;
    for (std::size_t k = 0; k < in_dims; ++k) {
      const double xi = row[k];
      if (xi == 0.0) continue;
      const double* ar = a + k * rp;
      for (std::size_t j = 0; j < rp; ++j) dst[j] += xi * ar[j];
    }
    for (std::size_t j = 0; j < rp; ++j) {
      lo[j] = std::min(lo[j], dst[j]);
      hi[j] = std::max(hi[j], dst[j]);
    }
  }
}

template <int RP>
void key_bin_rows(const double* __restrict proj,
                  const BinScale* __restrict scales,
                  std::uint32_t* __restrict keys, double* __restrict counts,
                  std::size_t bins, std::size_t begin, std::size_t end) {
  // Struct-of-arrays copy of the per-dimension constants so the j-loop loads
  // them as contiguous vectors instead of gathering through the BinScale
  // stride.
  double s_lo[RP], s_hi[RP], s_den[RP], s_dbins[RP], s_dlast[RP];
  std::int32_t s_last[RP];
  for (int j = 0; j < RP; ++j) {
    s_lo[j] = scales[j].lo;
    s_hi[j] = scales[j].hi;
    s_den[j] = scales[j].den;
    s_dbins[j] = scales[j].dbins;
    s_dlast[j] = scales[j].dlast;
    s_last[j] = static_cast<std::int32_t>(scales[j].last);
  }
  for (std::size_t i = begin; i < end; ++i) {
    const double* row = proj + i * static_cast<std::size_t>(RP);
    std::int32_t k[RP];
    for (int j = 0; j < RP; ++j) {
      // Same operation sequence as fused_key; the clamp bounds p to
      // [0, 2^24), so converting through int32 (vcvttpd2dq vectorizes on
      // AVX2, the unsigned convert does not) yields the identical bin.
      const double x = row[j];
      const double t = (x - s_lo[j]) / s_den[j];
      double p = t * s_dbins[j];
      p = p < 0.0 ? 0.0 : p;
      p = p > s_dlast[j] ? s_dlast[j] : p;
      auto b = static_cast<std::int32_t>(p);
      b = x <= s_lo[j] ? 0 : b;
      b = x >= s_hi[j] ? s_last[j] : b;
      k[j] = b;
    }
    std::uint32_t* krow = keys + i * static_cast<std::size_t>(RP);
    for (int j = 0; j < RP; ++j) {
      krow[j] = static_cast<std::uint32_t>(k[j]);
      counts[static_cast<std::size_t>(j) * bins +
             static_cast<std::uint32_t>(k[j])] += 1.0;
    }
  }
}

#if defined(__AVX2__)

// ---- Explicit AVX2 kernels for the ymm-aligned widths (RP = 4, 8) --------
//
// GCC scalarizes the accumulator arrays across the zero-skip branches and
// never re-vectorizes them, so the template kernels above compile to scalar
// code. These intrinsic versions are lane-for-lane identical to the scalar
// reference:
//   * vmulpd/vaddpd/vsubpd/vdivpd are per-lane IEEE ops, and writing mul and
//     add as separate intrinsics keeps them unfused (-ffp-contract=off).
//   * std::min(x, y) returns x on ties (signed zeros!) and y only when
//     y < x; _mm256_min_pd(a, b) returns b on ties and when either is NaN.
//     Hence std::min(x, y) == _mm256_min_pd(y, x) exactly, including ±0 and
//     NaN; same argument swap for max.
//   * the ternary clamps `p < 0 ? 0 : p` / `p > dlast ? dlast : p` keep p on
//     ties and NaN, which is _mm256_max_pd(0, p) / _mm256_min_pd(dlast, p)
//     with p in the second operand.
//   * vcvttpd2dq truncates toward zero exactly like the scalar int32 cast
//     (the clamp bounds p to [0, 2^24), so the value is always in range).

// Each 64-bit compare lane is all-ones or all-zeros; picking the even 32-bit
// words compresses it to a 4 x int32 mask in lane order.
inline __m128i mask64_to_mask32(__m256d m) {
  const __m256 ps = _mm256_castpd_ps(m);
  const __m128 lo = _mm256_castps256_ps128(ps);
  const __m128 hi = _mm256_extractf128_ps(ps, 1);
  return _mm_castps_si128(_mm_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0)));
}

// Non-temporal store of one ymm value: full-width when the destination is
// 32-byte aligned, two xmm streams at 16-byte alignment (malloc's
// guarantee), regular store otherwise. All produce identical memory
// contents; streaming just skips the read-for-ownership of a buffer that is
// written once and not read until it has left the cache anyway.
enum class StreamMode { kNone, kXmm, kYmm };

inline StreamMode stream_mode(const void* base) {
  const auto addr = reinterpret_cast<std::uintptr_t>(base);
  if ((addr & 31) == 0) return StreamMode::kYmm;
  if ((addr & 15) == 0) return StreamMode::kXmm;
  return StreamMode::kNone;
}

inline void store_row(double* dst, __m256d v, StreamMode mode) {
  switch (mode) {
    case StreamMode::kYmm:
      _mm256_stream_pd(dst, v);
      break;
    case StreamMode::kXmm:
      _mm_stream_pd(dst, _mm256_castpd256_pd128(v));
      _mm_stream_pd(dst + 2, _mm256_extractf128_pd(v, 1));
      break;
    case StreamMode::kNone:
      _mm256_storeu_pd(dst, v);
      break;
  }
}

void project_envelope_rows_avx2_rp4(const double* pts, std::size_t in_dims,
                                    const double* a, double* out,
                                    std::size_t begin, std::size_t end,
                                    double* lo, double* hi) {
  __m256d vlo = _mm256_loadu_pd(lo);
  __m256d vhi = _mm256_loadu_pd(hi);
  // Output offsets advance by 32-byte multiples, so one base-alignment check
  // picks the streaming mode for the whole chunk.
  const StreamMode nt = stream_mode(out);
  std::size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    const double* r0 = pts + i * in_dims;
    const double* r1 = r0 + in_dims;
    const double* r2 = r1 + in_dims;
    const double* r3 = r2 + in_dims;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = a0, a2 = a0, a3 = a0;
    // No zero-skip branch here: project_point's skip of x == 0 terms is
    // unobservable in the result bits. The product 0.0 * ar is +/-0 for any
    // finite ar, the accumulators start at +0 and can never become -0 under
    // addition (x + -x rounds to +0), and adding +/-0 to {+0, nonzero} is the
    // identity. The skip only matters if the projection matrix holds inf/NaN,
    // which make_projection_matrix never emits.
    for (std::size_t k = 0; k < in_dims; ++k) {
      const __m256d ar = _mm256_loadu_pd(a + k * 4);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_set1_pd(r0[k]), ar));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_set1_pd(r1[k]), ar));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_set1_pd(r2[k]), ar));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_set1_pd(r3[k]), ar));
    }
    double* dst = out + i * 4;
    store_row(dst, a0, nt);
    store_row(dst + 4, a1, nt);
    store_row(dst + 8, a2, nt);
    store_row(dst + 12, a3, nt);
    vlo = _mm256_min_pd(a0, vlo);  // std::min(vlo, a0), row order preserved
    vlo = _mm256_min_pd(a1, vlo);
    vlo = _mm256_min_pd(a2, vlo);
    vlo = _mm256_min_pd(a3, vlo);
    vhi = _mm256_max_pd(a0, vhi);
    vhi = _mm256_max_pd(a1, vhi);
    vhi = _mm256_max_pd(a2, vhi);
    vhi = _mm256_max_pd(a3, vhi);
  }
  if (nt != StreamMode::kNone) {
    _mm_sfence();  // order streaming stores before the pool join
  }
  _mm256_storeu_pd(lo, vlo);
  _mm256_storeu_pd(hi, vhi);
  for (; i < end; ++i) {
    const double* row = pts + i * in_dims;
    double acc[4] = {};
    for (std::size_t k = 0; k < in_dims; ++k) {
      const double xi = row[k];
      if (xi == 0.0) continue;
      const double* ar = a + k * 4;
      for (int j = 0; j < 4; ++j) acc[j] += xi * ar[j];
    }
    double* dst = out + i * 4;
    for (int j = 0; j < 4; ++j) {
      dst[j] = acc[j];
      lo[j] = std::min(lo[j], acc[j]);
      hi[j] = std::max(hi[j], acc[j]);
    }
  }
}

void project_envelope_rows_avx2_rp8(const double* pts, std::size_t in_dims,
                                    const double* a, double* out,
                                    std::size_t begin, std::size_t end,
                                    double* lo, double* hi) {
  __m256d vlo0 = _mm256_loadu_pd(lo);
  __m256d vlo1 = _mm256_loadu_pd(lo + 4);
  __m256d vhi0 = _mm256_loadu_pd(hi);
  __m256d vhi1 = _mm256_loadu_pd(hi + 4);
  const StreamMode nt = stream_mode(out);
  std::size_t i = begin;
  for (; i + 2 <= end; i += 2) {  // 2 points x 2 ymm = 4 independent chains
    const double* r0 = pts + i * in_dims;
    const double* r1 = r0 + in_dims;
    __m256d a00 = _mm256_setzero_pd();
    __m256d a01 = a00, a10 = a00, a11 = a00;
    // Branch-free: skipping x == 0 terms is unobservable in the result bits
    // for a finite projection matrix (see the width-4 kernel note).
    for (std::size_t k = 0; k < in_dims; ++k) {
      const __m256d ar0 = _mm256_loadu_pd(a + k * 8);
      const __m256d ar1 = _mm256_loadu_pd(a + k * 8 + 4);
      const __m256d b0 = _mm256_set1_pd(r0[k]);
      const __m256d b1 = _mm256_set1_pd(r1[k]);
      a00 = _mm256_add_pd(a00, _mm256_mul_pd(b0, ar0));
      a01 = _mm256_add_pd(a01, _mm256_mul_pd(b0, ar1));
      a10 = _mm256_add_pd(a10, _mm256_mul_pd(b1, ar0));
      a11 = _mm256_add_pd(a11, _mm256_mul_pd(b1, ar1));
    }
    double* dst = out + i * 8;
    store_row(dst, a00, nt);
    store_row(dst + 4, a01, nt);
    store_row(dst + 8, a10, nt);
    store_row(dst + 12, a11, nt);
    vlo0 = _mm256_min_pd(a00, vlo0);
    vlo1 = _mm256_min_pd(a01, vlo1);
    vhi0 = _mm256_max_pd(a00, vhi0);
    vhi1 = _mm256_max_pd(a01, vhi1);
    vlo0 = _mm256_min_pd(a10, vlo0);
    vlo1 = _mm256_min_pd(a11, vlo1);
    vhi0 = _mm256_max_pd(a10, vhi0);
    vhi1 = _mm256_max_pd(a11, vhi1);
  }
  if (nt != StreamMode::kNone) _mm_sfence();
  _mm256_storeu_pd(lo, vlo0);
  _mm256_storeu_pd(lo + 4, vlo1);
  _mm256_storeu_pd(hi, vhi0);
  _mm256_storeu_pd(hi + 4, vhi1);
  for (; i < end; ++i) {
    const double* row = pts + i * in_dims;
    double acc[8] = {};
    for (std::size_t k = 0; k < in_dims; ++k) {
      const double xi = row[k];
      if (xi == 0.0) continue;
      const double* ar = a + k * 8;
      for (int j = 0; j < 8; ++j) acc[j] += xi * ar[j];
    }
    double* dst = out + i * 8;
    for (int j = 0; j < 8; ++j) {
      dst[j] = acc[j];
      lo[j] = std::min(lo[j], acc[j]);
      hi[j] = std::max(hi[j], acc[j]);
    }
  }
}

// Pass B, width 4: vectorized key computation with direct stores, then a
// separate scalar accumulation loop (the scatter increments cannot
// vectorize, so keeping them out of the SIMD loop lets it stay branch-free).
// Alternating rows between two count replicas (c1 != nullptr) breaks the
// store-to-load forwarding chains that clustered inputs create when
// consecutive rows land in the same bin; the replicas hold integer-valued
// doubles, so folding them afterwards sums exactly.
void key_bin_rows_avx2_rp4(const double* proj, const BinScale* s,
                           std::uint32_t* keys, double* c0, double* c1,
                           std::size_t bins, std::size_t begin,
                           std::size_t end) {
  const __m256d lo = _mm256_set_pd(s[3].lo, s[2].lo, s[1].lo, s[0].lo);
  const __m256d hi = _mm256_set_pd(s[3].hi, s[2].hi, s[1].hi, s[0].hi);
  const __m256d den = _mm256_set_pd(s[3].den, s[2].den, s[1].den, s[0].den);
  const __m256d dbins =
      _mm256_set_pd(s[3].dbins, s[2].dbins, s[1].dbins, s[0].dbins);
  const __m256d dlast =
      _mm256_set_pd(s[3].dlast, s[2].dlast, s[1].dlast, s[0].dlast);
  const __m128i last = _mm_set_epi32(
      static_cast<int>(s[3].last), static_cast<int>(s[2].last),
      static_cast<int>(s[1].last), static_cast<int>(s[0].last));
  const __m256d zero = _mm256_setzero_pd();
  // Blocked so the key rows written by the SIMD loop are still cached when
  // the accumulation loop reads them back (a chunk-sized split would stream
  // the whole key table to memory and re-read it).
  constexpr std::size_t kBlock = 4096;
  for (std::size_t bs = begin; bs < end; bs += kBlock) {
    const std::size_t bend = std::min(bs + kBlock, end);
    for (std::size_t i = bs; i < bend; ++i) {
      const __m256d x = _mm256_loadu_pd(proj + i * 4);
      const __m256d t = _mm256_div_pd(_mm256_sub_pd(x, lo), den);
      __m256d p = _mm256_mul_pd(t, dbins);
      p = _mm256_max_pd(zero, p);   // p < 0 ? 0 : p
      p = _mm256_min_pd(dlast, p);  // p > dlast ? dlast : p
      __m128i b = _mm256_cvttpd_epi32(p);
      const __m128i m_le = mask64_to_mask32(_mm256_cmp_pd(x, lo, _CMP_LE_OQ));
      const __m128i m_ge = mask64_to_mask32(_mm256_cmp_pd(x, hi, _CMP_GE_OQ));
      b = _mm_andnot_si128(m_le, b);       // x <= lo -> bin 0
      b = _mm_blendv_epi8(b, last, m_ge);  // x >= hi -> last bin
      _mm_storeu_si128(reinterpret_cast<__m128i*>(keys + i * 4), b);
    }
    for (std::size_t i = bs; i < bend; ++i) {
      const std::uint32_t* krow = keys + i * 4;
      double* c = (c1 != nullptr && (i & 1)) ? c1 : c0;
      for (int j = 0; j < 4; ++j) {
        c[static_cast<std::size_t>(j) * bins + krow[j]] += 1.0;
      }
    }
  }
}

void key_bin_rows_avx2_rp8(const double* proj, const BinScale* s,
                           std::uint32_t* keys, double* c0, double* c1,
                           std::size_t bins, std::size_t begin,
                           std::size_t end) {
  const __m256d lo0 = _mm256_set_pd(s[3].lo, s[2].lo, s[1].lo, s[0].lo);
  const __m256d lo1 = _mm256_set_pd(s[7].lo, s[6].lo, s[5].lo, s[4].lo);
  const __m256d hi0 = _mm256_set_pd(s[3].hi, s[2].hi, s[1].hi, s[0].hi);
  const __m256d hi1 = _mm256_set_pd(s[7].hi, s[6].hi, s[5].hi, s[4].hi);
  const __m256d den0 = _mm256_set_pd(s[3].den, s[2].den, s[1].den, s[0].den);
  const __m256d den1 = _mm256_set_pd(s[7].den, s[6].den, s[5].den, s[4].den);
  const __m256d dbins0 =
      _mm256_set_pd(s[3].dbins, s[2].dbins, s[1].dbins, s[0].dbins);
  const __m256d dbins1 =
      _mm256_set_pd(s[7].dbins, s[6].dbins, s[5].dbins, s[4].dbins);
  const __m256d dlast0 =
      _mm256_set_pd(s[3].dlast, s[2].dlast, s[1].dlast, s[0].dlast);
  const __m256d dlast1 =
      _mm256_set_pd(s[7].dlast, s[6].dlast, s[5].dlast, s[4].dlast);
  const __m128i last0 = _mm_set_epi32(
      static_cast<int>(s[3].last), static_cast<int>(s[2].last),
      static_cast<int>(s[1].last), static_cast<int>(s[0].last));
  const __m128i last1 = _mm_set_epi32(
      static_cast<int>(s[7].last), static_cast<int>(s[6].last),
      static_cast<int>(s[5].last), static_cast<int>(s[4].last));
  const __m256d zero = _mm256_setzero_pd();
  constexpr std::size_t kBlock = 2048;
  for (std::size_t bs = begin; bs < end; bs += kBlock) {
    const std::size_t bend = std::min(bs + kBlock, end);
    for (std::size_t i = bs; i < bend; ++i) {
      const __m256d x0 = _mm256_loadu_pd(proj + i * 8);
      const __m256d x1 = _mm256_loadu_pd(proj + i * 8 + 4);
      const __m256d t0 = _mm256_div_pd(_mm256_sub_pd(x0, lo0), den0);
      const __m256d t1 = _mm256_div_pd(_mm256_sub_pd(x1, lo1), den1);
      __m256d p0 = _mm256_mul_pd(t0, dbins0);
      __m256d p1 = _mm256_mul_pd(t1, dbins1);
      p0 = _mm256_max_pd(zero, p0);
      p1 = _mm256_max_pd(zero, p1);
      p0 = _mm256_min_pd(dlast0, p0);
      p1 = _mm256_min_pd(dlast1, p1);
      __m128i b0 = _mm256_cvttpd_epi32(p0);
      __m128i b1 = _mm256_cvttpd_epi32(p1);
      b0 = _mm_andnot_si128(
          mask64_to_mask32(_mm256_cmp_pd(x0, lo0, _CMP_LE_OQ)), b0);
      b1 = _mm_andnot_si128(
          mask64_to_mask32(_mm256_cmp_pd(x1, lo1, _CMP_LE_OQ)), b1);
      b0 = _mm_blendv_epi8(
          b0, last0, mask64_to_mask32(_mm256_cmp_pd(x0, hi0, _CMP_GE_OQ)));
      b1 = _mm_blendv_epi8(
          b1, last1, mask64_to_mask32(_mm256_cmp_pd(x1, hi1, _CMP_GE_OQ)));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(keys + i * 8), b0);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(keys + i * 8 + 4), b1);
    }
    for (std::size_t i = bs; i < bend; ++i) {
      const std::uint32_t* krow = keys + i * 8;
      double* c = (c1 != nullptr && (i & 1)) ? c1 : c0;
      for (int j = 0; j < 8; ++j) {
        c[static_cast<std::size_t>(j) * bins + krow[j]] += 1.0;
      }
    }
  }
}

#endif  // __AVX2__

void key_bin_rows_generic(const double* proj, std::size_t rp,
                          const BinScale* scales, std::uint32_t* keys,
                          double* counts, std::size_t bins, std::size_t begin,
                          std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    const double* row = proj + i * rp;
    std::uint32_t* krow = keys + i * rp;
    for (std::size_t j = 0; j < rp; ++j) {
      krow[j] = fused_key(row[j], scales[j]);
    }
    for (std::size_t j = 0; j < rp; ++j) {
      counts[j * bins + krow[j]] += 1.0;
    }
  }
}

}  // namespace

BinScale make_bin_scale(const Range& range, int d_max) {
  KB2_CHECK_MSG(d_max >= 1 && d_max <= 24, "d_max " << d_max
                                                    << " out of [1, 24]");
  KB2_CHECK_MSG(range.hi > range.lo, "empty key range");
  const auto bins = std::uint32_t{1} << static_cast<unsigned>(d_max);
  BinScale s;
  s.lo = range.lo;
  s.hi = range.hi;
  s.den = range.hi - range.lo;
  s.dbins = static_cast<double>(bins);
  s.last = bins - 1;
  s.dlast = static_cast<double>(bins - 1);
  return s;
}

const Matrix& fused_project_envelope(const Matrix& local_points,
                                     const Matrix& projection,
                                     std::size_t dims, FusedWorkspace& ws) {
  const bool identity = projection.empty();
  const std::size_t rows = local_points.rows();
  if (identity) {
    KB2_CHECK_MSG(rows == 0 || local_points.cols() == dims,
                  "identity projection dims mismatch: " << local_points.cols()
                                                        << " vs " << dims);
  } else {
    KB2_CHECK_MSG(projection.cols() == dims,
                  "projection dims mismatch: " << projection.cols() << " vs "
                                               << dims);
    KB2_CHECK_MSG(rows == 0 || local_points.cols() == projection.rows(),
                  "projection shape mismatch: " << local_points.cols()
                                                << " vs " << projection.rows());
    ws.projected.reshape(rows, dims);
  }
  const Matrix& out = identity ? local_points : ws.projected;

  ws.env_lo.assign(dims, std::numeric_limits<double>::infinity());
  ws.env_hi.assign(dims, -std::numeric_limits<double>::infinity());
  if (rows == 0) return out;

  const std::size_t max_chunks = std::max<std::size_t>(1, global_pool().size());
  if (ws.chunk_envelopes.size() < max_chunks) {
    ws.chunk_envelopes.resize(max_chunks);
  }
  std::atomic<std::size_t> cursor{0};

  const double* pts = local_points.flat().data();
  const std::size_t in_dims = local_points.cols();
  const double* a = projection.flat().data();
  double* proj_out = identity ? nullptr : ws.projected.flat().data();

  global_pool().parallel_for(rows, kProjectGrain, [&](std::size_t begin,
                                                      std::size_t end) {
    auto& env = ws.chunk_envelopes[cursor.fetch_add(1)];
    env.begin = begin;
    env.lo.assign(dims, std::numeric_limits<double>::infinity());
    env.hi.assign(dims, -std::numeric_limits<double>::infinity());
    double* lo = env.lo.data();
    double* hi = env.hi.data();
    if (identity) {
      for (std::size_t i = begin; i < end; ++i) {
        const double* row = pts + i * in_dims;
        for (std::size_t j = 0; j < dims; ++j) {
          lo[j] = std::min(lo[j], row[j]);
          hi[j] = std::max(hi[j], row[j]);
        }
      }
      return;
    }
    switch (dims) {
      case 2: project_envelope_rows<2>(pts, in_dims, a, proj_out, begin, end, lo, hi); break;
      case 3: project_envelope_rows<3>(pts, in_dims, a, proj_out, begin, end, lo, hi); break;
      case 4:
#if defined(__AVX2__)
        project_envelope_rows_avx2_rp4(pts, in_dims, a, proj_out, begin, end, lo, hi);
#else
        project_envelope_rows<4>(pts, in_dims, a, proj_out, begin, end, lo, hi);
#endif
        break;
      case 5: project_envelope_rows<5>(pts, in_dims, a, proj_out, begin, end, lo, hi); break;
      case 6: project_envelope_rows<6>(pts, in_dims, a, proj_out, begin, end, lo, hi); break;
      case 7: project_envelope_rows<7>(pts, in_dims, a, proj_out, begin, end, lo, hi); break;
      case 8:
#if defined(__AVX2__)
        project_envelope_rows_avx2_rp8(pts, in_dims, a, proj_out, begin, end, lo, hi);
#else
        project_envelope_rows<8>(pts, in_dims, a, proj_out, begin, end, lo, hi);
#endif
        break;
      case 9: project_envelope_rows<9>(pts, in_dims, a, proj_out, begin, end, lo, hi); break;
      default:
        project_envelope_rows_generic(pts, in_dims, dims, a, proj_out, begin,
                                      end, lo, hi);
    }
  });

  // Merge chunk envelopes in row order: min/max keep the first of equal
  // values, so an ordered fold of ordered folds reproduces the sequential
  // scan bit-for-bit (signed zeros included).
  const std::size_t used = std::min(cursor.load(), max_chunks);
  std::sort(ws.chunk_envelopes.begin(),
            ws.chunk_envelopes.begin() + static_cast<std::ptrdiff_t>(used),
            [](const auto& a, const auto& b) { return a.begin < b.begin; });
  for (std::size_t c = 0; c < used; ++c) {
    const auto& env = ws.chunk_envelopes[c];
    for (std::size_t j = 0; j < dims; ++j) {
      ws.env_lo[j] = std::min(ws.env_lo[j], env.lo[j]);
      ws.env_hi[j] = std::max(ws.env_hi[j], env.hi[j]);
    }
  }
  return out;
}

std::vector<stats::HierarchicalHistogram> fused_key_bin(
    const Matrix& projected, const std::vector<Range>& ranges, int d_max,
    FusedWorkspace& ws) {
  const std::size_t dims = projected.cols();
  const std::size_t rows = projected.rows();
  KB2_CHECK_MSG(ranges.size() == dims, "ranges size " << ranges.size()
                                                      << " != dims " << dims);
  const std::size_t bins = stats::HierarchicalHistogram::bins_at(d_max);

  ws.scales.resize(dims);
  for (std::size_t j = 0; j < dims; ++j) {
    ws.scales[j] = make_bin_scale(ranges[j], d_max);
  }
  ws.keys.reshape(rows, dims, d_max);

  const std::size_t max_shards = std::max<std::size_t>(1, global_pool().size());
  if (ws.shards.size() < max_shards) ws.shards.resize(max_shards);
  std::atomic<std::size_t> cursor{0};

  const BinScale* scales = ws.scales.data();
  const double* proj = projected.flat().data();
  std::uint32_t* keys_out = rows > 0 ? &ws.keys.at(0, 0) : nullptr;
  // Two count replicas per shard break the store-to-load chains that
  // clustered data creates when consecutive rows hit the same bin; capped so
  // deep histograms do not double a large allocation.
  const bool dual = dims * bins <= (std::size_t{1} << 20);
  global_pool().parallel_for(rows, kBinGrain, [&](std::size_t begin,
                                                  std::size_t end) {
    auto& shard = ws.shards[cursor.fetch_add(1)];
    shard.assign(dims * bins * (dual ? 2 : 1), 0.0);
    double* counts = shard.data();
    double* counts2 = dual ? counts + dims * bins : nullptr;
    (void)counts2;
    switch (dims) {
      case 2: key_bin_rows<2>(proj, scales, keys_out, counts, bins, begin, end); break;
      case 3: key_bin_rows<3>(proj, scales, keys_out, counts, bins, begin, end); break;
      case 4:
#if defined(__AVX2__)
        key_bin_rows_avx2_rp4(proj, scales, keys_out, counts, counts2, bins,
                              begin, end);
#else
        key_bin_rows<4>(proj, scales, keys_out, counts, bins, begin, end);
#endif
        break;
      case 5: key_bin_rows<5>(proj, scales, keys_out, counts, bins, begin, end); break;
      case 6: key_bin_rows<6>(proj, scales, keys_out, counts, bins, begin, end); break;
      case 7: key_bin_rows<7>(proj, scales, keys_out, counts, bins, begin, end); break;
      case 8:
#if defined(__AVX2__)
        key_bin_rows_avx2_rp8(proj, scales, keys_out, counts, counts2, bins,
                              begin, end);
#else
        key_bin_rows<8>(proj, scales, keys_out, counts, bins, begin, end);
#endif
        break;
      case 9: key_bin_rows<9>(proj, scales, keys_out, counts, bins, begin, end); break;
      default:
        key_bin_rows_generic(proj, dims, scales, keys_out, counts, bins,
                             begin, end);
    }
    if (dual) {  // fold the second replica back in (exact: integer counts)
      const std::size_t n = dims * bins;
      for (std::size_t k = 0; k < n; ++k) counts[k] += counts[n + k];
    }
  });

  // Pairwise tree merge of the claimed shards. Disjoint targets per task, so
  // no locks; counts are integer-valued doubles, so any merge order sums
  // exactly (bit-identical to build_histograms' per-dimension scan).
  std::size_t used = std::min(cursor.load(), max_shards);
  if (used == 0) {
    ws.shards[0].assign(dims * bins, 0.0);
    used = 1;
  }
  for (std::size_t gap = 1; gap < used; gap <<= 1) {
    const std::size_t pairs = (used - gap + 2 * gap - 1) / (2 * gap);
    global_pool().parallel_for(pairs, [&](std::size_t pb, std::size_t pe) {
      for (std::size_t p = pb; p < pe; ++p) {
        const std::size_t dst = p * 2 * gap;
        const std::size_t src = dst + gap;
        if (src >= used) continue;
        double* a = ws.shards[dst].data();
        const double* b = ws.shards[src].data();
        for (std::size_t k = 0; k < dims * bins; ++k) a[k] += b[k];
      }
    });
  }

  std::vector<stats::HierarchicalHistogram> hists;
  hists.reserve(dims);
  const std::span<const double> merged(ws.shards[0]);
  for (std::size_t j = 0; j < dims; ++j) {
    hists.emplace_back(ranges[j].lo, ranges[j].hi, d_max);
    hists[j].set_deepest_counts(merged.subspan(j * bins, bins));
  }
  return hists;
}

}  // namespace keybin2::core

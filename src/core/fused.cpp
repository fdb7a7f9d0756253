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

namespace keybin2::core {

namespace {

// Chunks below these sizes are not worth a worker wake-up; they also bound
// the number of count shards pass B has to zero and merge.
constexpr std::size_t kProjectGrain = 1024;
constexpr std::size_t kBinGrain = 4096;

// ---- Compile-time-RP key/bin kernels -------------------------------------
//
// The projected dimensionality is tiny (the paper's rule gives 2-9), so pass
// B is specialized on it: with RP a compile-time constant the j-loops fully
// unroll and the divisions in the key computation pipeline independently
// instead of serializing through one memory-carried chain. Every
// specialization performs the IDENTICAL per-lane operation sequence as
// fused_key (fused.cpp is built with -ffp-contract=off), so keys and counts
// stay bit-identical.

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

// ---- AVX2 kernels ----------------------------------------------------------
//
// Every intrinsic kernel is lane-for-lane identical to its scalar reference:
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

// One tile of the projection: R rows x NB column blocks of 4 lanes. Each
// lane runs project_point's sequence — accumulator from +0, k ascending,
// multiply then add — so its result is bit-identical. project_point's skip of
// x == 0 terms is dropped: it is unobservable in the result bits, because
// 0 * a is ±0 for finite a, the accumulator starts at +0 and never becomes
// -0 under addition (x + -x rounds to +0), and adding ±0 to {+0, nonzero} is
// the identity. It would matter only for an inf/NaN matrix entry, which
// make_projection_matrix never emits and the readers reject. With kTail the
// last block holds the `tail` lanes of a width that is not a multiple of 4:
// masked loads read zeros beyond it and masked stores leave the memory there
// alone. The tile folds its rows into the block envelopes in row order.
template <int R, int NB, bool kTail>
[[gnu::always_inline]] inline void project_tile(
    const double* x, std::size_t in_dims, const double* a, std::size_t cols,
    double* out, __m256i tail, __m256d (&lo)[NB], __m256d (&hi)[NB]) {
  __m256d acc[R][NB];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int b = 0; b < NB; ++b) acc[r][b] = _mm256_setzero_pd();
  }
  for (std::size_t k = 0; k < in_dims; ++k) {
    const double* ak = a + k * cols;
    __m256d av[NB];
#pragma GCC unroll 8
    for (int b = 0; b < NB; ++b) {
      av[b] = kTail && b == NB - 1 ? _mm256_maskload_pd(ak + 4 * b, tail)
                                   : _mm256_loadu_pd(ak + 4 * b);
    }
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m256d xr = _mm256_broadcast_sd(x + r * in_dims + k);
#pragma GCC unroll 8
      for (int b = 0; b < NB; ++b) {
        acc[r][b] = _mm256_add_pd(acc[r][b], _mm256_mul_pd(xr, av[b]));
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    double* dst = out + r * cols;
#pragma GCC unroll 8
    for (int b = 0; b < NB; ++b) {
      if (kTail && b == NB - 1) {
        _mm256_maskstore_pd(dst + 4 * b, tail, acc[r][b]);
      } else {
        _mm256_storeu_pd(dst + 4 * b, acc[r][b]);
      }
      lo[b] = _mm256_min_pd(acc[r][b], lo[b]);  // std::min(lo, acc)
      hi[b] = _mm256_max_pd(acc[r][b], hi[b]);
    }
  }
}

// One group of NB column blocks over every row. Narrow groups keep several
// rows in flight, about eight accumulators in all: each lane's chain of adds
// is strictly k-ordered (the bit-identity contract), so one narrow row is
// latency-bound on vaddpd and independent rows fill the pipeline.
template <int NB, bool kTail>
void project_group(const double* x, std::size_t rows, std::size_t in_dims,
                   const double* a, std::size_t cols, double* out,
                   __m256i tail, double* lo, double* hi) {
  constexpr int R = NB == 1 ? 8 : NB == 2 ? 4 : NB <= 4 ? 2 : 1;
  __m256d vlo[NB], vhi[NB];
  for (int b = 0; b < NB; ++b) {
    vlo[b] = lo ? _mm256_loadu_pd(lo + 4 * b)
                : _mm256_set1_pd(std::numeric_limits<double>::infinity());
    vhi[b] = hi ? _mm256_loadu_pd(hi + 4 * b)
                : _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  }
  std::size_t r = 0;
  for (; r + R <= rows; r += R) {
    project_tile<R, NB, kTail>(x + r * in_dims, in_dims, a, cols,
                               out + r * cols, tail, vlo, vhi);
  }
  for (; r < rows; ++r) {
    project_tile<1, NB, kTail>(x + r * in_dims, in_dims, a, cols,
                               out + r * cols, tail, vlo, vhi);
  }
  if (lo) {
    for (int b = 0; b < NB; ++b) {
      _mm256_storeu_pd(lo + 4 * b, vlo[b]);
      _mm256_storeu_pd(hi + 4 * b, vhi[b]);
    }
  }
}

// project_group with the last block masked to its first `tail_lanes` lanes,
// or unmasked when the group ends on a whole block (tail_lanes == 0).
template <int NB>
void project_blocks(const double* x, std::size_t rows, std::size_t in_dims,
                    const double* a, std::size_t cols, double* out,
                    std::size_t tail_lanes, double* lo, double* hi) {
  if (tail_lanes == 0) {
    project_group<NB, false>(x, rows, in_dims, a, cols, out,
                             _mm256_setzero_si256(), lo, hi);
    return;
  }
  const __m256i tail = _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(tail_lanes)),
      _mm256_set_epi64x(3, 2, 1, 0));
  project_group<NB, true>(x, rows, in_dims, a, cols, out, tail, lo, hi);
}

// Each 64-bit compare lane is all-ones or all-zeros; picking the even 32-bit
// words compresses it to a 4 x int32 mask in lane order.
inline __m128i mask64_to_mask32(__m256d m) {
  const __m256 ps = _mm256_castpd_ps(m);
  const __m128 lo = _mm256_castps256_ps128(ps);
  const __m128 hi = _mm256_extractf128_ps(ps, 1);
  return _mm_castps_si128(_mm_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0)));
}

// Pass B, width 4: vectorized key computation with direct stores, then a
// separate scalar accumulation loop (the scatter increments cannot
// vectorize, so keeping them out of the SIMD loop lets it stay branch-free).
// Alternating rows between two count replicas (c1 != nullptr) breaks the
// store-to-load forwarding chains that clustered inputs create when
// consecutive rows land in the same bin; the replicas hold integer-valued
// doubles, so folding them afterwards sums exactly. With c0 == nullptr only
// the keys are written (fused_keys).
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
    if (c0 == nullptr) continue;
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
    if (c0 == nullptr) continue;
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

void project_rows(const double* x, std::size_t rows, std::size_t in_dims,
                  const double* a, std::size_t cols, double* out, double* lo,
                  double* hi) {
#if defined(__AVX2__)
  // At most eight blocks per group: eight accumulators, the broadcast and
  // the matrix loads fit the sixteen ymm registers.
  constexpr std::size_t kGroup = 8;
  const std::size_t blocks = (cols + 3) / 4;
  for (std::size_t g = 0; g < blocks; g += kGroup) {
    const std::size_t nb = std::min(kGroup, blocks - g);
    const std::size_t tail = g + nb == blocks ? cols % 4 : 0;
    const std::size_t c = 4 * g;
    double* glo = lo ? lo + c : nullptr;
    double* ghi = hi ? hi + c : nullptr;
    switch (nb) {
      case 1: project_blocks<1>(x, rows, in_dims, a + c, cols, out + c, tail, glo, ghi); break;
      case 2: project_blocks<2>(x, rows, in_dims, a + c, cols, out + c, tail, glo, ghi); break;
      case 3: project_blocks<3>(x, rows, in_dims, a + c, cols, out + c, tail, glo, ghi); break;
      case 4: project_blocks<4>(x, rows, in_dims, a + c, cols, out + c, tail, glo, ghi); break;
      case 5: project_blocks<5>(x, rows, in_dims, a + c, cols, out + c, tail, glo, ghi); break;
      case 6: project_blocks<6>(x, rows, in_dims, a + c, cols, out + c, tail, glo, ghi); break;
      case 7: project_blocks<7>(x, rows, in_dims, a + c, cols, out + c, tail, glo, ghi); break;
      default: project_blocks<8>(x, rows, in_dims, a + c, cols, out + c, tail, glo, ghi); break;
    }
  }
#else
  for (std::size_t r = 0; r < rows; ++r) {
    const double* xr = x + r * in_dims;
    double* dst = out + r * cols;
    std::fill(dst, dst + cols, 0.0);
    for (std::size_t k = 0; k < in_dims; ++k) {
      const double* ak = a + k * cols;
      for (std::size_t c = 0; c < cols; ++c) dst[c] += xr[k] * ak[c];
    }
    for (std::size_t c = 0; lo && c < cols; ++c) {
      lo[c] = std::min(lo[c], dst[c]);
      hi[c] = std::max(hi[c], dst[c]);
    }
  }
#endif
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
  const std::size_t lanes = project_lanes(dims);

  global_pool().parallel_for(rows, kProjectGrain, [&](std::size_t begin,
                                                      std::size_t end) {
    auto& env = ws.chunk_envelopes[cursor.fetch_add(1)];
    env.begin = begin;
    env.lo.assign(lanes, std::numeric_limits<double>::infinity());
    env.hi.assign(lanes, -std::numeric_limits<double>::infinity());
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
    project_rows(pts + begin * in_dims, end - begin, in_dims, a, dims,
                 proj_out + begin * dims, lo, hi);
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

void fused_keys(const Matrix& points, const std::vector<Range>& ranges,
                int d_max, KeyTable& keys) {
  const std::size_t dims = points.cols();
  KB2_CHECK_MSG(ranges.size() == dims, "ranges size " << ranges.size()
                                                      << " != dims " << dims);
  std::vector<BinScale> scales(dims);
  for (std::size_t j = 0; j < dims; ++j) {
    scales[j] = make_bin_scale(ranges[j], d_max);
  }
  const std::size_t rows = points.rows();
  keys.reshape(rows, dims, d_max);
  if (rows == 0) return;
  const double* x = points.flat().data();
  std::uint32_t* out = &keys.at(0, 0);
#if defined(__AVX2__)
  // Pass B's width-4/8 key loops, without their histogram scatter.
  if (dims == 4) {
    key_bin_rows_avx2_rp4(x, scales.data(), out, nullptr, nullptr, 0, 0, rows);
    return;
  }
  if (dims == 8) {
    key_bin_rows_avx2_rp8(x, scales.data(), out, nullptr, nullptr, 0, 0, rows);
    return;
  }
#endif
  for (std::size_t i = 0; i < rows * dims; i += dims) {
    for (std::size_t j = 0; j < dims; ++j) {
      out[i + j] = fused_key(x[i + j], scales[j]);
    }
  }
}

void cell_ids(const KeyTable& keys, const std::size_t* columns,
              const unsigned* shifts, const std::uint64_t* const* tables,
              std::size_t arity, std::uint64_t* ids) {
  const std::size_t n = keys.points();
  const std::size_t dims = keys.dims();
  const std::uint32_t* key = keys.data();
  std::size_t i = 0;
#if defined(__AVX2__)
  // Lane l reads row i + l, dims keys further on: the stride index must fit
  // an int32 lane.
  if (dims <= static_cast<std::size_t>(std::numeric_limits<int>::max() / 3)) {
    const auto d = static_cast<int>(dims);
    const __m128i lane_rows = _mm_setr_epi32(0, d, 2 * d, 3 * d);
    for (; i + 4 <= n; i += 4) {
      const std::uint32_t* row = key + i * dims;
      __m256i id = _mm256_setzero_si256();
      for (std::size_t k = 0; k < arity; ++k) {
        const __m128i deepest = _mm_i32gather_epi32(
            reinterpret_cast<const int*>(row + columns[k]), lane_rows, 4);
        // Keys are below 2^d_max <= 2^24 (key_of and make_bin_scale check
        // d_max), so the bins are valid int32 gather indices.
        const __m128i bins = _mm_srl_epi32(
            deepest, _mm_cvtsi32_si128(static_cast<int>(shifts[k])));
        id = _mm256_add_epi64(
            id, _mm256_i32gather_epi64(
                    reinterpret_cast<const long long*>(tables[k]), bins, 8));
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(ids + i), id);
    }
  }
#endif
  for (; i < n; ++i) {
    const std::uint32_t* row = key + i * dims;
    std::uint64_t id = 0;
    for (std::size_t k = 0; k < arity; ++k) {
      id += tables[k][row[columns[k]] >> shifts[k]];
    }
    ids[i] = id;
  }
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

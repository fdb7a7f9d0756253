// Fused project→key→bin data plane for the fit pipeline (DESIGN.md §4d).
//
// The reference kernels traverse the data four times: projection matmul
// (project), per-dimension range scan, compute_keys, and build_histograms
// (which re-reads the whole key table once per dimension, column-strided).
// The fused plane, the fit's only data path, collapses this to two passes:
//
//   Pass A  fused_project_envelope — project each point and fold it into the
//           per-dimension min/max envelope in the same traversal. With an
//           identity projection the input matrix is passed through by
//           reference (no copy at all).
//   Pass B  fused_key_bin — assign keys and accumulate all per-dimension
//           histogram counts in one row-major traversal. Each parallel chunk
//           claims a private count shard (no locks, no atomics on the hot
//           path); shards are merged pairwise tree-wise afterwards.
//
// Per-dimension constants (lo, hi, hi-lo, 2^d_max, bins-1) are hoisted into
// BinScale structs-of-arrays once per trial, removing key_of's per-call
// range checks and d_max shifts from the inner loop. The key computation
// itself keeps the exact FP operation sequence of key_of —
// t = (x-lo)/(hi-lo); b = uint32(t*2^d_max); clamp — so keys and histograms
// are bit-identical to the reference kernels (enforced by the property tests
// in tests/test_fused.cpp). In particular the division
// is NOT replaced by a multiply-with-reciprocal, which would change rounding.
//
// Every projection outside the scalar reference runs through one
// width-generic AVX2 kernel, project_rows: pass A, StreamingKeyBin2::push
// (all trials' matrices stacked side by side, so a point is projected once)
// and Model::predict. Each lane of it repeats project_point's operation
// sequence, so projections stay bit-identical too.
//
// The unit also hosts the depth sweep's cell-id kernel, cell_ids, which
// count_cells runs once per candidate: it needs the same -mavx2 build.
//
// All scratch (projected matrix, key table, envelopes, shards) lives in a
// FusedWorkspace the caller keeps across bootstrap trials, so steady-state
// trials allocate nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/matrix.hpp"
#include "core/keys.hpp"
#include "stats/histogram.hpp"

namespace keybin2::core {

/// Hoisted per-dimension binning constants (struct-of-arrays across
/// dimensions lives in FusedWorkspace so the inner loop vectorizes).
struct BinScale {
  double lo = 0.0;
  double hi = 1.0;
  double den = 1.0;    // hi - lo, computed once
  double dbins = 2.0;  // double(2^d_max)
  double dlast = 1.0;  // double(2^d_max - 1)
  std::uint32_t last = 1;
};

BinScale make_bin_scale(const Range& range, int d_max);

/// Bit-identical replacement for key_of(x, range, d_max) with the checks and
/// shift hoisted into `s`. Branch-reduced: the in-range bin is computed
/// unconditionally (the clamp makes the uint32 cast well-defined for any
/// finite x), then the two edge cases select over it exactly as key_of's
/// early returns would.
inline std::uint32_t fused_key(double x, const BinScale& s) {
  const double t = (x - s.lo) / s.den;
  double p = t * s.dbins;
  p = p < 0.0 ? 0.0 : p;
  p = p > s.dlast ? s.dlast : p;
  auto b = static_cast<std::uint32_t>(p);
  if (x <= s.lo) b = 0;
  if (x >= s.hi) b = s.last;
  return b;
}

/// Reusable cross-trial scratch for the fused plane. Buffers grow to the
/// high-water mark of the first trial and are reused verbatim afterwards.
struct FusedWorkspace {
  Matrix projected;
  std::vector<double> env_lo, env_hi;  // pass A output, one per dimension
  KeyTable keys;                       // pass B output

  // Pass B internals: per-chunk count shards (chunk_of claims them through
  // an atomic cursor; at most one per pool worker) and the SoA bin scales.
  std::vector<std::vector<double>> shards;
  std::vector<BinScale> scales;

  // Pass A internals: per-chunk envelopes, merged in row order so the result
  // is bit-identical to a sequential scan (min/max keep the first of equal
  // values, which matters only for signed zeros).
  struct ChunkEnvelope {
    std::size_t begin = 0;
    std::vector<double> lo, hi;
  };
  std::vector<ChunkEnvelope> chunk_envelopes;
};

/// Lanes project_rows works in for `cols` output columns: `cols` rounded up
/// to a multiple of 4.
constexpr std::size_t project_lanes(std::size_t cols) {
  return (cols + 3) / 4 * 4;
}

/// The projection kernel: out[r * cols + c] = sum_k x[r * in_dims + k] *
/// a[k * cols + c] for `rows` contiguous input rows and a row-major
/// in_dims x cols matrix, bit-identical to project_point on every row for a
/// finite `a`. When `lo`/`hi` are given (project_lanes(cols) values each),
/// every output row is folded into them in row order, as std::min/std::max
/// would; lanes past `cols` hold nothing meaningful.
void project_rows(const double* x, std::size_t rows, std::size_t in_dims,
                  const double* a, std::size_t cols, double* out,
                  double* lo = nullptr, double* hi = nullptr);

/// Pass A: project `local_points` through `projection` (empty => identity)
/// and compute per-dimension [min, max] envelopes in the same traversal.
/// `dims` is the projected dimensionality every rank agreed on (an empty
/// shard cannot derive it locally — its envelope must still have one
/// +inf/-inf slot per dimension for the allreduce to line up). Fills
/// ws.env_lo / ws.env_hi exactly like a scan of `project`'s output and
/// returns the projected matrix — ws.projected, or `local_points` itself
/// under identity (zero-copy).
const Matrix& fused_project_envelope(const Matrix& local_points,
                                     const Matrix& projection,
                                     std::size_t dims, FusedWorkspace& ws);

/// Pass B: keys + all-dimension histograms in one traversal. Fills ws.keys
/// and returns per-dimension hierarchies whose deepest counts equal
/// build_histograms(compute_keys(...)) bit-for-bit.
std::vector<stats::HierarchicalHistogram> fused_key_bin(
    const Matrix& projected, const std::vector<Range>& ranges, int d_max,
    FusedWorkspace& ws);

/// Keys only: fills `keys` exactly like compute_keys(points, ranges, d_max)
/// for finite `points`, through the hoisted BinScale path (pass B without
/// the histogram scatter; serial). Reuses `keys`' allocation.
void fused_keys(const Matrix& points, const std::vector<Range>& ranges,
                int d_max, KeyTable& keys);

/// The cell-id kernel of count_cells (core/cells.hpp): for every point i of
/// `keys`, ids[i] = sum over k < arity of
/// tables[k][keys.at(i, columns[k]) >> shifts[k]], the point's packed
/// mixed-radix cell id. Four points per step under AVX2: one gather reads a
/// kept column's keys, a shift coarsens them to the candidate's depth, and a
/// second gather reads their id shares; a scalar loop takes the tail, or
/// every point without AVX2. The gathers are unchecked: every tables[k] must
/// cover every key >> shifts[k] (2^(d_max - shifts[k]) entries).
void cell_ids(const KeyTable& keys, const std::size_t* columns,
              const unsigned* shifts, const std::uint64_t* const* tables,
              std::size_t arity, std::uint64_t* ids);

}  // namespace keybin2::core

// Hierarchical keys (paper §3, step 2; inherited from KeyBin v1).
//
// A point's key in one dimension is the path of bin labels from depth 1 down
// to d_max over the range [r_min, r_max]: at each level the space halves, so
// the path is exactly the binary representation of the deepest-level bin
// index. We therefore store one uint32 per (point, dimension) — the bin at
// d_max — and recover any coarser level with a shift. The full point key is
// the tuple of per-dimension indices (the paper's concatenation "356406").
//
// Keys are computed independently per point and per dimension from the
// point's features alone — the property that makes KeyBin2 embarrassingly
// parallel and privacy preserving.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.hpp"

namespace keybin2::core {

/// Per-dimension value range used to anchor the key space.
struct Range {
  double lo = 0.0;
  double hi = 1.0;
};

/// Deepest-level bin index of value x over `range` at depth d_max
/// (2^d_max bins); out-of-range values, infinities included, clamp to the
/// edge bins. Throws keybin2::Error on NaN.
std::uint32_t key_of(double x, const Range& range, int d_max);

/// Coarsen a deepest-level key to `depth` (depth <= d_max).
inline std::uint32_t key_at_depth(std::uint32_t deepest_key, int d_max,
                                  int depth) {
  return deepest_key >> static_cast<unsigned>(d_max - depth);
}

/// Table of deepest-level keys: one row per point, one column per
/// (projected) dimension.
class KeyTable {
 public:
  KeyTable() = default;
  KeyTable(std::size_t points, std::size_t dims, int d_max)
      : dims_(dims), d_max_(d_max), keys_(points * dims, 0) {}

  std::size_t points() const { return dims_ ? keys_.size() / dims_ : 0; }
  std::size_t dims() const { return dims_; }
  int d_max() const { return d_max_; }

  std::uint32_t& at(std::size_t point, std::size_t dim) {
    return keys_[point * dims_ + dim];
  }
  std::uint32_t at(std::size_t point, std::size_t dim) const {
    return keys_[point * dims_ + dim];
  }

  std::uint32_t at_depth(std::size_t point, std::size_t dim, int depth) const {
    return key_at_depth(at(point, dim), d_max_, depth);
  }

  /// The keys row-major, point by point: key (i, j) at data()[i * dims() + j].
  const std::uint32_t* data() const { return keys_.data(); }

  /// Re-dimension in place, reusing the existing allocation when it is large
  /// enough. Contents are unspecified afterwards; callers overwrite every
  /// entry. This is the scratch-reuse hook for per-trial workspaces.
  void reshape(std::size_t points, std::size_t dims, int d_max) {
    dims_ = dims;
    d_max_ = d_max;
    keys_.resize(points * dims);
  }

 private:
  std::size_t dims_ = 0;
  int d_max_ = 0;
  std::vector<std::uint32_t> keys_;
};

/// Compute keys for every point/dimension of a (projected) matrix, in
/// parallel over points. ranges.size() must equal points.cols().
KeyTable compute_keys(const Matrix& points, const std::vector<Range>& ranges,
                      int d_max);

/// Human-readable key string at `depth`, e.g. "35.64.06" — the paper's
/// concatenated form, used by the in-situ fingerprints.
std::string format_key(const KeyTable& keys, std::size_t point, int depth);

}  // namespace keybin2::core

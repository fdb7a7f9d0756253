#include "core/keys.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace keybin2::core {

std::uint32_t key_of(double x, const Range& range, int d_max) {
  KB2_CHECK_MSG(d_max >= 1 && d_max <= 24, "d_max " << d_max
                                                    << " out of [1, 24]");
  KB2_CHECK_MSG(range.hi > range.lo, "empty key range");
  KB2_CHECK_MSG(!std::isnan(x), "cannot key a NaN value");
  const auto bins = std::uint32_t{1} << static_cast<unsigned>(d_max);
  if (x <= range.lo) return 0;
  if (x >= range.hi) return bins - 1;
  const double t = (x - range.lo) / (range.hi - range.lo);
  const auto b = static_cast<std::uint32_t>(t * static_cast<double>(bins));
  return std::min(b, bins - 1);
}

KeyTable compute_keys(const Matrix& points, const std::vector<Range>& ranges,
                      int d_max) {
  KB2_CHECK_MSG(ranges.size() == points.cols(),
                "ranges size " << ranges.size() << " != dims "
                               << points.cols());
  KeyTable table(points.rows(), points.cols(), d_max);
  global_pool().parallel_for(
      points.rows(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          auto row = points.row(i);
          for (std::size_t j = 0; j < row.size(); ++j) {
            table.at(i, j) = key_of(row[j], ranges[j], d_max);
          }
        }
      });
  return table;
}

std::string format_key(const KeyTable& keys, std::size_t point, int depth) {
  // Called from per-point trace loops: one preallocated string, to_chars per
  // component, no stream machinery.
  std::string out;
  out.reserve(keys.dims() * 11);
  char buf[10];  // uint32 max is 10 digits
  for (std::size_t j = 0; j < keys.dims(); ++j) {
    if (j) out.push_back('.');
    const auto res =
        std::to_chars(buf, buf + sizeof(buf), keys.at_depth(point, j, depth));
    out.append(buf, res.ptr);
  }
  return out;
}

}  // namespace keybin2::core

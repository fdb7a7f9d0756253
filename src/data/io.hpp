// Dataset persistence: CSV (human-inspectable, interoperable with the
// paper's Python tooling) and a raw binary format (fast reload for benches,
// and the out-of-core driver's input).
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "data/dataset.hpp"

namespace keybin2::data {

/// Write points (and a trailing `label` column when labelled) as CSV with a
/// header row "f0,f1,...,label".
void write_csv(const Dataset& d, const std::string& path);

/// Read a CSV produced by write_csv (a final `label` column is recognised by
/// the header). Every feature cell must hold one number and every label one
/// integer, as std::stod / std::stoi read them, with nothing but whitespace
/// after it; anything else throws keybin2::Error naming the path, line and
/// column.
Dataset read_csv(const std::string& path);

/// Binary format "KB2DS": a 25-byte header (u64 magic, u64 rows, u64 cols,
/// u8 has_labels), then rows x cols row-major doubles, then rows ints when
/// has_labels.
void write_binary(const Dataset& d, const std::string& path);
Dataset read_binary(const std::string& path);

/// The one reader of the binary format, for read_binary and the out-of-core
/// driver's chunked passes. Opening checks the header against the file: the
/// magic, cols >= 1, and a body of exactly the bytes the header declares.
/// Throws keybin2::Error naming the file otherwise.
class BinaryDatasetReader {
 public:
  explicit BinaryDatasetReader(const std::string& path);

  std::uint64_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool labelled() const { return labelled_; }

  /// Rows [first, first + n) of the points; requires first + n <= rows().
  Matrix read_points(std::uint64_t first, std::size_t n);
  /// All rows() labels; requires labelled().
  std::vector<int> read_labels();

 private:
  void read_at(std::uint64_t offset, void* into, std::size_t bytes);

  std::string path_;
  std::ifstream in_;
  std::uint64_t rows_ = 0;
  std::size_t cols_ = 0;
  bool labelled_ = false;
};

}  // namespace keybin2::data

#include "data/io.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <sstream>
#include <type_traits>

#include "common/error.hpp"

namespace keybin2::data {

namespace {

constexpr std::uint64_t kMagic = 0x4b42324453ULL;  // "KB2DS"

// magic + rows + cols + has_labels; the body starts right after.
constexpr std::size_t kHeaderBytes = 8 + 8 + 8 + 1;

/// Parse one whole CSV cell as std::stod (T = double) or std::stoi
/// (T = int) would, allowing nothing but whitespace (a CRLF file's '\r')
/// after the number; `line` and `col` are 1-based.
template <typename T>
T parse_cell(const std::string& cell, const std::string& path,
             std::size_t line, std::size_t col) {
  const char* begin = cell.c_str();
  char* end = nullptr;
  errno = 0;
  T value{};
  bool in_range = true;
  if constexpr (std::is_same_v<T, double>) {
    value = std::strtod(begin, &end);
  } else {
    const long v = std::strtol(begin, &end, 10);
    in_range = v >= INT_MIN && v <= INT_MAX;
    value = static_cast<T>(v);
  }
  const bool whole =
      end != begin &&
      std::all_of(static_cast<const char*>(end), begin + cell.size(),
                  [](char c) {
                    return std::isspace(static_cast<unsigned char>(c)) != 0;
                  });
  KB2_CHECK_MSG(whole && in_range && errno != ERANGE,
                path << ":" << line << ":" << col << ": cell '" << cell
                     << "' is not "
                     << (std::is_same_v<T, double> ? "a number"
                                                   : "an integer label"));
  return value;
}

}  // namespace

void write_csv(const Dataset& d, const std::string& path) {
  std::ofstream out(path);
  KB2_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  out.precision(17);
  for (std::size_t j = 0; j < d.dims(); ++j) {
    if (j) out << ',';
    out << 'f' << j;
  }
  if (d.labelled()) out << ",label";
  out << '\n';
  for (std::size_t i = 0; i < d.size(); ++i) {
    auto row = d.points.row(i);
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (j) out << ',';
      out << row[j];
    }
    if (d.labelled()) out << ',' << d.labels[i];
    out << '\n';
  }
  KB2_CHECK_MSG(out.good(), "write to " << path << " failed");
}

Dataset read_csv(const std::string& path) {
  std::ifstream in(path);
  KB2_CHECK_MSG(in.good(), "cannot open " << path);
  std::string line;
  KB2_CHECK_MSG(static_cast<bool>(std::getline(in, line)),
                "empty CSV " << path);

  // Parse header; the dataset is labelled iff the last column is "label".
  std::vector<std::string> header;
  {
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) header.push_back(cell);
  }
  KB2_CHECK_MSG(!header.empty(), "CSV header empty in " << path);
  const bool labelled = header.back() == "label";
  const std::size_t dims = header.size() - (labelled ? 1 : 0);
  KB2_CHECK_MSG(dims >= 1, "CSV has no feature columns: " << path);

  Dataset d;
  std::vector<double> row(dims);
  for (std::size_t line_no = 2; std::getline(in, line); ++line_no) {
    if (line.empty()) continue;
    std::stringstream ss(line);
    std::string cell;
    for (std::size_t j = 0; j < dims; ++j) {
      KB2_CHECK_MSG(static_cast<bool>(std::getline(ss, cell, ',')),
                    "short row in " << path);
      row[j] = parse_cell<double>(cell, path, line_no, j + 1);
    }
    d.points.append_row(row);
    if (labelled) {
      KB2_CHECK_MSG(static_cast<bool>(std::getline(ss, cell, ',')),
                    "missing label in " << path);
      d.labels.push_back(parse_cell<int>(cell, path, line_no, dims + 1));
    }
  }
  return d;
}

void write_binary(const Dataset& d, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  KB2_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  const std::uint64_t rows = d.size(), cols = d.dims();
  const std::uint8_t has_labels = d.labelled() ? 1 : 0;
  out.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
  out.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
  out.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
  out.write(reinterpret_cast<const char*>(&has_labels), sizeof(has_labels));
  const auto flat = d.points.flat();
  out.write(reinterpret_cast<const char*>(flat.data()),
            static_cast<std::streamsize>(flat.size_bytes()));
  if (has_labels) {
    out.write(reinterpret_cast<const char*>(d.labels.data()),
              static_cast<std::streamsize>(d.labels.size() * sizeof(int)));
  }
  KB2_CHECK_MSG(out.good(), "write to " << path << " failed");
}

Dataset read_binary(const std::string& path) {
  BinaryDatasetReader in(path);
  Dataset d;
  d.points = in.read_points(0, static_cast<std::size_t>(in.rows()));
  if (in.labelled()) d.labels = in.read_labels();
  return d;
}

BinaryDatasetReader::BinaryDatasetReader(const std::string& path)
    : path_(path), in_(path, std::ios::binary) {
  KB2_CHECK_MSG(in_.is_open(), "cannot open " << path);
  std::uint64_t magic = 0, rows = 0, cols = 0;
  std::uint8_t has_labels = 0;
  in_.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  KB2_CHECK_MSG(in_.good() && magic == kMagic,
                path << " is not a KB2 dataset file");
  in_.read(reinterpret_cast<char*>(&rows), sizeof(rows));
  in_.read(reinterpret_cast<char*>(&cols), sizeof(cols));
  in_.read(reinterpret_cast<char*>(&has_labels), sizeof(has_labels));
  KB2_CHECK_MSG(in_.good(), "truncated dataset header in " << path);
  KB2_CHECK_MSG(cols >= 1, "dataset " << path << " has no columns");

  // The body must hold exactly what the header declares. The products are
  // overflow-checked: a hostile header must not wrap them to a small size.
  in_.seekg(0, std::ios::end);
  const std::streamoff size = in_.tellg();
  KB2_CHECK_MSG(size >= static_cast<std::streamoff>(kHeaderBytes),
                "cannot size dataset file " << path);
  std::uint64_t values = 0, body = 0, label_bytes = 0;
  const bool fits =
      !__builtin_mul_overflow(rows, cols, &values) &&
      !__builtin_mul_overflow(values, sizeof(double), &body) &&
      (has_labels == 0 ||
       (!__builtin_mul_overflow(rows, sizeof(int), &label_bytes) &&
        !__builtin_add_overflow(body, label_bytes, &body)));
  const auto held = static_cast<std::uint64_t>(size) - kHeaderBytes;
  KB2_CHECK_MSG(fits && body == held,
                "dataset " << path << " header declares " << rows
                           << " rows x " << cols << " cols"
                           << (has_labels != 0 ? " with labels" : "")
                           << " but its body holds " << held << " bytes");
  rows_ = rows;
  cols_ = static_cast<std::size_t>(cols);
  labelled_ = has_labels != 0;
}

void BinaryDatasetReader::read_at(std::uint64_t offset, void* into,
                                  std::size_t bytes) {
  in_.seekg(static_cast<std::streamoff>(offset));
  in_.read(static_cast<char*>(into), static_cast<std::streamsize>(bytes));
  KB2_CHECK_MSG(in_.good(), "truncated dataset body in " << path_);
}

Matrix BinaryDatasetReader::read_points(std::uint64_t first, std::size_t n) {
  KB2_CHECK(first <= rows_ && n <= rows_ - first);
  std::vector<double> flat(n * cols_);
  read_at(kHeaderBytes + first * cols_ * sizeof(double), flat.data(),
          flat.size() * sizeof(double));
  return Matrix(n, cols_, std::move(flat));
}

std::vector<int> BinaryDatasetReader::read_labels() {
  KB2_CHECK(labelled_);
  std::vector<int> labels(static_cast<std::size_t>(rows_));
  read_at(kHeaderBytes + rows_ * cols_ * sizeof(double), labels.data(),
          labels.size() * sizeof(int));
  return labels;
}

}  // namespace keybin2::data

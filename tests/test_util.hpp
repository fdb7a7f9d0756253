// Shared filesystem helpers for tests.
//
// Several suites stage inputs and outputs under /tmp. ctest runs each
// discovered test as its own process, possibly in parallel, so every path
// must be unique per process — otherwise one test's teardown deletes a file
// another test is still reading. These helpers centralize that convention
// (previously copy-pasted into every fixture) and add RAII cleanup, so a
// failing assertion can no longer leak temp files past the test.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

namespace keybin2::testutil {

/// A /tmp path unique to this process: "/tmp/<stem>_<pid><suffix>".
inline std::string temp_path(const std::string& stem,
                             const std::string& suffix) {
  return "/tmp/" + stem + "_" + std::to_string(::getpid()) + suffix;
}

/// Owns a set of temp paths and deletes them on destruction (whether or not
/// anything was ever written there). Typical use: a fixture member whose
/// make() replaces both SetUp path assembly and TearDown removal.
class TempPaths {
 public:
  TempPaths() = default;
  ~TempPaths() {
    for (const auto& p : paths_) std::remove(p.c_str());
  }
  TempPaths(const TempPaths&) = delete;
  TempPaths& operator=(const TempPaths&) = delete;

  /// Build a unique-per-process path and register it for cleanup.
  std::string make(const std::string& stem, const std::string& suffix) {
    paths_.push_back(temp_path(stem, suffix));
    return paths_.back();
  }

 private:
  std::vector<std::string> paths_;
};

/// KB2DS dataset files whose header disagrees with the file, one per defect
/// every dataset reader must reject with a keybin2::Error: rows x cols that
/// wraps to 0, a row count no file holds, zero columns, a truncated body,
/// and one trailing byte. The paths are registered with `tmp`.
inline std::vector<std::string> bad_dataset_files(TempPaths& tmp) {
  struct Bad {
    const char* stem;
    std::uint64_t rows, cols;
    std::uint8_t has_labels;
    std::size_t body_bytes;
  };
  const Bad kBad[] = {
      {"kb2_ds_wrapped", std::uint64_t{1} << 33, std::uint64_t{1} << 31, 0, 0},
      {"kb2_ds_huge", std::uint64_t{1} << 60, 1, 0, 0},
      {"kb2_ds_no_cols", 5, 0, 0, 0},
      {"kb2_ds_short_body", 4, 2, 1, 4 * 2 * 8 + 4 * 4 - 1},
      {"kb2_ds_trailing", 4, 2, 0, 4 * 2 * 8 + 1},
  };
  std::vector<std::string> paths;
  for (const Bad& b : kBad) {
    paths.push_back(tmp.make(b.stem, ".bin"));
    std::FILE* f = std::fopen(paths.back().c_str(), "wb");
    const std::uint64_t magic = 0x4b42324453ULL;  // "KB2DS"
    std::fwrite(&magic, sizeof(magic), 1, f);
    std::fwrite(&b.rows, sizeof(b.rows), 1, f);
    std::fwrite(&b.cols, sizeof(b.cols), 1, f);
    std::fwrite(&b.has_labels, sizeof(b.has_labels), 1, f);
    const std::string body(b.body_bytes, '\0');
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
  }
  return paths;
}

}  // namespace keybin2::testutil

// The one versioned, CRC32-checked file container (DESIGN.md §4b, §10).
//
// Checkpoints (core/checkpoint.hpp) and flight dumps (runtime/flight) are
//
//   [u64 magic] [u32 version] [u64 payload_size] [u32 payload_crc32]
//   [payload bytes]
//
// written atomically (tmp file + rename), so a crash mid-write never
// clobbers the previous good file. The payload is an opaque byte blob
// produced by the owning format; this layer only guards its integrity:
// missing, truncated and foreign files, version skew and bit corruption are
// each rejected with a ContainerError before one payload byte is
// interpreted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace keybin2 {

/// Typed, attributed container defect: which file, which defect class.
/// Derives Error so generic catch sites keep working; the recovery ladder,
/// the chaos-soak gate and kb2_postmortem match on the defect string.
class ContainerError final : public Error {
 public:
  ContainerError(const std::string& what, std::string path,
                 std::string defect)
      : Error(what), path_(std::move(path)), defect_(std::move(defect)) {}

  const std::string& path() const { return path_; }
  /// One of: "missing", "truncated", "bad_magic", "version_skew",
  /// "crc_mismatch"; a format's payload decoder may add its own
  /// ("malformed" for flight dumps).
  const std::string& defect() const { return defect_; }

 private:
  std::string path_;
  std::string defect_;
};

/// Container header size in bytes: magic + version + payload_size + crc.
inline constexpr std::size_t kContainerHeaderBytes = 8 + 4 + 8 + 4;

/// Deterministic damage for robustness tests and the chaos soak, in the
/// order comm/chaos draws it (`% 5`).
enum class ContainerCorruption {
  kTruncateHeader,   // cut mid-header: too short to even parse
  kTruncatePayload,  // cut mid-payload: size mismatch
  kZeroSpan,         // zero a span inside the payload: CRC mismatch
  kFlipBit,          // flip one payload bit: CRC mismatch
  kBadMagic,         // stomp the magic: not this format's file
};

/// One on-disk format in the container.
struct ContainerFormat {
  std::uint64_t magic;
  /// Bumped whenever the payload schema changes, so an older file fails
  /// as "version_skew" instead of being misparsed.
  std::uint32_t version;
  const char* noun;  // read errors read "<noun> <path> ...": "checkpoint"
  const char* tag;   // the bad-magic text names it: "(not a KB2CKPT file)"
  /// Demote an existing file at `path` to `path + ".prev"` before the new
  /// one lands, so one generation survives a later corruption.
  bool keep_previous;

  /// Write `payload` to `path + ".tmp"`, flush, and rename it into place.
  void write(const std::string& path,
             std::span<const std::byte> payload) const;

  /// Read and verify `path`; returns the payload. Throws ContainerError
  /// naming the file and the first defect found, checked in this order:
  /// missing, truncated header, bad_magic, version_skew, truncated
  /// payload, crc_mismatch.
  std::vector<std::byte> read(const std::string& path) const;

  /// Throw ContainerError("<noun> <path> <detail>", path, defect).
  [[noreturn]] void fail(const std::string& path, const std::string& defect,
                         const std::string& detail) const;

  /// Apply `mode` to the file at `path` in place; `seed` picks the damaged
  /// offset deterministically where the mode has a choice.
  void corrupt(const std::string& path, ContainerCorruption mode,
               std::uint64_t seed = 1) const;
};

}  // namespace keybin2

// Versioned, CRC32-checked checkpoint container (DESIGN.md §4b).
//
// A checkpoint file is
//
//   [u64 magic "KB2CKPT"] [u32 version] [u64 payload_size] [u32 payload_crc]
//   [payload bytes]
//
// written atomically (tmp file + rename) so a crash mid-save never clobbers
// the previous good checkpoint. The payload is an opaque byte blob produced
// by the owning driver (StreamingKeyBin2::serialize, the out-of-core
// driver's resume record); this layer only guards its integrity: truncated
// files, foreign files, version skew, and bit corruption are all rejected
// with a keybin2::Error before a single payload byte is interpreted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace keybin2::core {

/// Typed, attributed checkpoint defect: which file, which defect class.
/// Derives Error so existing catch sites keep working; the recovery ladder
/// and the chaos-soak gate match on the type and the defect string.
class CheckpointError final : public Error {
 public:
  CheckpointError(const std::string& what, std::string path,
                  std::string defect)
      : Error(what), path_(std::move(path)), defect_(std::move(defect)) {}

  const std::string& path() const { return path_; }
  /// One of: "missing", "truncated", "bad_magic", "version_skew",
  /// "crc_mismatch", "io".
  const std::string& defect() const { return defect_; }

 private:
  std::string path_;
  std::string defect_;
};

/// "KB2CKPT" packed little-endian into a u64 (high byte zero).
inline constexpr std::uint64_t kCheckpointMagic = 0x0054504b43324b42ULL;

/// Bumped whenever the container layout or a payload schema changes, so an
/// older file fails as "version_skew" instead of being misparsed. Version 2:
/// the streaming engine writes one projected reservoir per trial.
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// Container header size in bytes: magic + version + payload_size + crc.
inline constexpr std::size_t kCheckpointHeaderBytes = 8 + 4 + 8 + 4;

/// Write `payload` to `path` inside the container above. The bytes land in
/// `path + ".tmp"` first and are renamed into place only after a successful
/// flush, so readers never observe a half-written checkpoint. An existing
/// good checkpoint at `path` is demoted to `path + ".prev"` first, so one
/// generation of history survives a later corruption of the primary.
void write_checkpoint_file(const std::string& path,
                           std::span<const std::byte> payload);

/// Read and validate a checkpoint written by write_checkpoint_file().
/// Throws CheckpointError naming the file and the specific defect on a
/// missing file, bad magic, unsupported version, truncation/size mismatch,
/// or CRC mismatch.
std::vector<std::byte> read_checkpoint_file(const std::string& path);

/// Read `path`, falling back to `path + ".prev"` when the primary is
/// corrupt or missing. `used_previous` (optional) reports which copy was
/// read. When both fail, the PRIMARY's error propagates (it names the
/// checkpoint the caller asked for).
std::vector<std::byte> read_checkpoint_file_or_previous(
    const std::string& path, bool* used_previous = nullptr);

/// Deterministic checkpoint-corruption fixture, shared by the unit tests
/// and the chaos-soak engine: damage the file at `path` in a specific way.
enum class CheckpointCorruption {
  kTruncateHeader,   // cut mid-header: too short to even parse
  kTruncatePayload,  // cut mid-payload: size mismatch
  kZeroSpan,         // zero a span inside the payload: CRC mismatch
  kFlipBit,          // flip one payload bit: CRC mismatch
  kBadMagic,         // stomp the magic: not a KB2CKPT file
};

/// Apply `mode` to the checkpoint at `path` in place; `seed` picks the
/// damaged offset deterministically where the mode has a choice.
void corrupt_checkpoint_file(const std::string& path, CheckpointCorruption mode,
                             std::uint64_t seed = 1);

}  // namespace keybin2::core

// Checkpoint files (DESIGN.md §4b): the KB2CKPT format of the one checked
// container (common/container.hpp). The payload is an opaque byte blob
// produced by the owning driver (StreamingKeyBin2::serialize, the
// out-of-core driver's resume record); the container rejects truncated
// files, foreign files, version skew and bit corruption before a single
// payload byte is interpreted.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/container.hpp"

namespace keybin2::core {

/// A checkpoint defect: which file, which defect class ("missing",
/// "truncated", "bad_magic", "version_skew", "crc_mismatch").
using CheckpointError = ContainerError;

/// Magic "KB2CKPT" as a u64 (high byte zero; the bytes on disk read
/// "BK2CKPT\0").
/// Version 2: the streaming engine writes one projected reservoir per
/// trial. Writing demotes the checkpoint being replaced to `path + ".prev"`.
inline constexpr ContainerFormat kCheckpointFile{
    0x0054504b43324b42ULL, 2, "checkpoint", "KB2CKPT",
    /*keep_previous=*/true};

/// Read `path`, falling back to `path + ".prev"` when the primary is
/// corrupt or missing. `used_previous` (optional) reports which copy was
/// read. When both fail, the PRIMARY's error propagates (it names the
/// checkpoint the caller asked for).
std::vector<std::byte> read_checkpoint_file_or_previous(
    const std::string& path, bool* used_previous = nullptr);

}  // namespace keybin2::core

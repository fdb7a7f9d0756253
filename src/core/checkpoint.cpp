#include "core/checkpoint.hpp"

#include <exception>

namespace keybin2::core {

std::vector<std::byte> read_checkpoint_file_or_previous(
    const std::string& path, bool* used_previous) {
  if (used_previous != nullptr) *used_previous = false;
  std::exception_ptr primary;
  try {
    return kCheckpointFile.read(path);
  } catch (const CheckpointError&) {
    primary = std::current_exception();
  }
  try {
    auto payload = kCheckpointFile.read(path + ".prev");
    if (used_previous != nullptr) *used_previous = true;
    return payload;
  } catch (const CheckpointError&) {
    // Neither copy is readable: the primary's error names the checkpoint
    // the caller actually asked for.
    std::rethrow_exception(primary);
  }
}

}  // namespace keybin2::core

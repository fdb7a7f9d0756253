// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// Used as an end-to-end integrity check on (a) every framed inter-rank
// message — bounds checks catch truncation, but zero-fill or bit-flip
// corruption can keep every length prefix plausible, so frames carry a
// checksum — and (b) the checkpoint file container, so a torn or bit-rotted
// checkpoint is rejected instead of resuming from garbage state.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace keybin2 {

namespace detail {

// Slicing-by-8 tables: kCrc32Tables[0] is the bytewise table, and
// kCrc32Tables[k][b] advances the CRC of byte b through k more zero bytes,
// so one step folds eight input bytes with eight independent lookups.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc32_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

inline constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc32Tables =
    make_crc32_tables();

}  // namespace detail

/// CRC-32 of a byte span (init 0xFFFFFFFF, final xor — the zlib convention,
/// so an all-zero buffer never checksums to zero). Eight bytes per step on
/// little-endian hosts; the bytewise loop takes the tail and big-endian
/// hosts. Both give the same value for every input.
inline std::uint32_t crc32(std::span<const std::byte> data) {
  const auto& t = detail::kCrc32Tables;
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; p += 8, n -= 8) {
      std::uint32_t one, two;
      std::memcpy(&one, p, 4);
      std::memcpy(&two, p + 4, 4);
      one ^= crc;
      crc = t[7][one & 0xFFu] ^ t[6][(one >> 8) & 0xFFu] ^
            t[5][(one >> 16) & 0xFFu] ^ t[4][one >> 24] ^
            t[3][two & 0xFFu] ^ t[2][(two >> 8) & 0xFFu] ^
            t[1][(two >> 16) & 0xFFu] ^ t[0][two >> 24];
    }
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ static_cast<std::uint32_t>(*p)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace keybin2

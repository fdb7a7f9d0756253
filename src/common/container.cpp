#include "common/container.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/crc32.hpp"
#include "common/serialize.hpp"

namespace keybin2 {

void ContainerFormat::fail(const std::string& path, const std::string& defect,
                           const std::string& detail) const {
  std::ostringstream os;
  os << noun << " " << path << " " << detail;
  throw ContainerError(os.str(), path, defect);
}

void ContainerFormat::write(const std::string& path,
                            std::span<const std::byte> payload) const {
  ByteWriter header;
  header.write<std::uint64_t>(magic);
  header.write<std::uint32_t>(version);
  header.write<std::uint64_t>(static_cast<std::uint64_t>(payload.size()));
  header.write<std::uint32_t>(crc32(payload));

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    KB2_CHECK_MSG(out.is_open(),
                  "cannot open " << noun << " " << tmp << " for writing");
    out.write(reinterpret_cast<const char*>(header.bytes().data()),
              static_cast<std::streamsize>(header.bytes().size()));
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    out.flush();
    KB2_CHECK_MSG(out.good(), "short write to " << noun << " " << tmp);
  }
  // Failure to demote is not fatal: the primary write is what matters.
  if (keep_previous) std::rename(path.c_str(), (path + ".prev").c_str());
  KB2_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                "cannot move " << noun << " " << tmp << " into place at "
                               << path);
}

std::vector<std::byte> ContainerFormat::read(const std::string& path) const {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) fail(path, "missing", "cannot be opened");
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  if (raw.size() < kContainerHeaderBytes) {
    std::ostringstream os;
    os << "truncated: " << raw.size() << " bytes, header alone needs "
       << kContainerHeaderBytes;
    fail(path, "truncated", os.str());
  }

  ByteReader r(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(raw.data()), raw.size()));
  if (r.read<std::uint64_t>() != magic) {
    fail(path, "bad_magic", std::string("has bad magic (not a ") + tag +
                                " file)");
  }
  const auto file_version = r.read<std::uint32_t>();
  if (file_version != version) {
    std::ostringstream os;
    os << "has version " << file_version << ", this build reads version "
       << version;
    fail(path, "version_skew", os.str());
  }
  const auto payload_size = r.read<std::uint64_t>();
  if (payload_size != raw.size() - kContainerHeaderBytes) {
    std::ostringstream os;
    os << "truncated: header promises " << payload_size
       << " payload bytes, file holds " << raw.size() - kContainerHeaderBytes;
    fail(path, "truncated", os.str());
  }
  const auto expected_crc = r.read<std::uint32_t>();

  std::vector<std::byte> payload(static_cast<std::size_t>(payload_size));
  std::memcpy(payload.data(), raw.data() + kContainerHeaderBytes,
              payload.size());
  const auto actual_crc = crc32(payload);
  if (actual_crc != expected_crc) {
    std::ostringstream os;
    os << "failed its CRC32 integrity check (stored " << expected_crc
       << ", computed " << actual_crc << ")";
    fail(path, "crc_mismatch", os.str());
  }
  return payload;
}

void ContainerFormat::corrupt(const std::string& path,
                              ContainerCorruption mode,
                              std::uint64_t seed) const {
  std::vector<char> raw;
  {
    std::ifstream in(path, std::ios::binary);
    KB2_CHECK_MSG(in.is_open(),
                  "cannot open " << noun << " " << path << " to corrupt");
    raw.assign((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
  }
  const std::size_t payload_bytes =
      raw.size() > kContainerHeaderBytes ? raw.size() - kContainerHeaderBytes
                                         : 0;
  switch (mode) {
    case ContainerCorruption::kTruncateHeader:
      raw.resize(raw.size() < kContainerHeaderBytes
                     ? raw.size() / 2
                     : kContainerHeaderBytes / 2);
      break;
    case ContainerCorruption::kTruncatePayload:
      KB2_CHECK_MSG(payload_bytes > 0,
                    noun << " " << path << " has no payload to truncate");
      raw.resize(kContainerHeaderBytes + payload_bytes / 2);
      break;
    case ContainerCorruption::kZeroSpan: {
      KB2_CHECK_MSG(payload_bytes > 0,
                    noun << " " << path << " has no payload to zero");
      const std::size_t at = kContainerHeaderBytes + seed % payload_bytes;
      const std::size_t len = std::min<std::size_t>(16, raw.size() - at);
      std::memset(raw.data() + at, 0, len);
      break;
    }
    case ContainerCorruption::kFlipBit: {
      KB2_CHECK_MSG(payload_bytes > 0,
                    noun << " " << path << " has no payload to flip");
      const std::size_t at = kContainerHeaderBytes + seed % payload_bytes;
      raw[at] = static_cast<char>(raw[at] ^ (1 << (seed % 8)));
      break;
    }
    case ContainerCorruption::kBadMagic:
      KB2_CHECK_MSG(raw.size() >= 8, noun << " " << path << " too short");
      std::memset(raw.data(), 0x5a, 8);
      break;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  KB2_CHECK_MSG(out.is_open(), "cannot rewrite " << noun << " " << path);
  out.write(raw.data(), static_cast<std::streamsize>(raw.size()));
  out.flush();
  KB2_CHECK_MSG(out.good(), "short write while corrupting " << path);
}

}  // namespace keybin2

#include "common/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace keybin2 {
namespace {

TEST(Serialize, PodRoundtrip) {
  ByteWriter w;
  w.write<std::int32_t>(-7);
  w.write<double>(3.25);
  w.write<std::uint64_t>(1ULL << 60);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.read<std::int32_t>(), -7);
  EXPECT_EQ(r.read<double>(), 3.25);
  EXPECT_EQ(r.read<std::uint64_t>(), 1ULL << 60);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, VectorRoundtrip) {
  ByteWriter w;
  w.write_vec(std::vector<double>{1.0, 2.0, 3.0});
  w.write_vec(std::vector<std::uint32_t>{});

  ByteReader r(w.bytes());
  EXPECT_EQ(r.read_vec<double>(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_TRUE(r.read_vec<std::uint32_t>().empty());
}

TEST(Serialize, SpanRoundtrip) {
  const double values[] = {9.0, 8.0};
  ByteWriter w;
  w.write_span(std::span<const double>(values));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read_vec<double>(), (std::vector<double>{9.0, 8.0}));
}

TEST(Serialize, MutableSpanOverload) {
  std::vector<double> values{1.5, 2.5};
  ByteWriter w;
  w.write_span(std::span<double>(values));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read_vec<double>(), values);
}

TEST(Serialize, StringRoundtrip) {
  ByteWriter w;
  w.write_string("hello keybin");
  w.write_string("");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read_string(), "hello keybin");
  EXPECT_EQ(r.read_string(), "");
}

TEST(Serialize, MixedSequenceRoundtrip) {
  ByteWriter w;
  w.write<int>(1);
  w.write_string("x");
  w.write_vec(std::vector<int>{2, 3});
  w.write<double>(4.5);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.read<int>(), 1);
  EXPECT_EQ(r.read_string(), "x");
  EXPECT_EQ(r.read_vec<int>(), (std::vector<int>{2, 3}));
  EXPECT_EQ(r.read<double>(), 4.5);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, UnderflowThrows) {
  ByteWriter w;
  w.write<std::int16_t>(1);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.read<std::int64_t>(), Error);
}

TEST(Serialize, VectorUnderflowThrows) {
  ByteWriter w;
  w.write<std::uint64_t>(1000);  // claims 1000 elements, provides none
  ByteReader r(w.bytes());
  EXPECT_THROW(r.read_vec<double>(), Error);
}

TEST(Serialize, RemainingTracksPosition) {
  ByteWriter w;
  w.write<std::uint32_t>(5);
  w.write<std::uint32_t>(6);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.remaining(), 8u);
  r.read<std::uint32_t>();
  EXPECT_EQ(r.remaining(), 4u);
}

TEST(Serialize, TakeMovesBuffer) {
  ByteWriter w;
  w.write<int>(9);
  auto bytes = w.take();
  EXPECT_EQ(bytes.size(), sizeof(int));
  EXPECT_TRUE(w.bytes().empty());
}

// ---- CRC-32 (frames, checkpoint files, flight dumps) ----

// The plain bytewise CRC-32 the slicing-by-8 version must reproduce.
std::uint32_t reference_crc32(std::span<const std::byte> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::byte b : data) {
    crc ^= static_cast<std::uint32_t>(b);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, StandardCheckValue) {
  constexpr std::string_view check = "123456789";
  EXPECT_EQ(crc32(std::as_bytes(std::span(check.data(), check.size()))),
            0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Offsets 0-8 put the eight-byte steps at every alignment; lengths 0-300
  // cover empty input, tails alone, and many steps plus every tail length.
  Rng rng(41);
  std::vector<std::byte> buf(8 + 300);
  for (auto& b : buf) b = static_cast<std::byte>(rng.uniform_int(256));
  for (std::size_t offset = 0; offset <= 8; ++offset) {
    for (std::size_t len = 0; len <= 300 && offset + len <= buf.size();
         ++len) {
      const std::span<const std::byte> data(buf.data() + offset, len);
      ASSERT_EQ(crc32(data), reference_crc32(data))
          << "offset " << offset << " length " << len;
    }
  }
}

}  // namespace
}  // namespace keybin2

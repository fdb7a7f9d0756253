// Checkpoint/restart (DESIGN.md §4b): the container must reject every form
// of on-disk damage, the streaming engine must round-trip its exact state,
// and a killed-then-resumed out-of-core run must reproduce the uninterrupted
// run's model bit for bit.
#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "core/out_of_core.hpp"
#include "core/projection.hpp"
#include "core/streaming.hpp"
#include "data/gaussian_mixture.hpp"
#include "data/io.hpp"
#include "runtime/flight/flight.hpp"
#include "runtime/segment.hpp"
#include "test_util.hpp"

namespace keybin2::core {
namespace {

std::vector<std::byte> model_bytes(const Model& m) {
  ByteWriter w;
  m.serialize(w);
  return {w.bytes().begin(), w.bytes().end()};
}

std::vector<std::byte> engine_bytes(const StreamingKeyBin2& e) {
  ByteWriter w;
  e.serialize(w);
  return {w.bytes().begin(), w.bytes().end()};
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& raw) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(raw.data(), static_cast<std::streamsize>(raw.size()));
}

class CheckpointFile : public ::testing::Test {
 protected:
  void SetUp() override { path_ = tmp_.make("kb2_ckpt", ".bin"); }
  testutil::TempPaths tmp_;
  std::string path_;
};

TEST_F(CheckpointFile, RoundTripPreservesPayload) {
  std::vector<std::byte> payload(1000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i * 37 + 5);
  }
  kCheckpointFile.write(path_, payload);
  EXPECT_EQ(kCheckpointFile.read(path_), payload);
}

TEST_F(CheckpointFile, WriteIsAtomic) {
  // The temp file must not linger after a successful rename.
  kCheckpointFile.write(path_, std::vector<std::byte>(16, std::byte{9}));
  std::ifstream tmp(path_ + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.is_open());
}

TEST_F(CheckpointFile, RejectsMissingFile) {
  EXPECT_THROW(kCheckpointFile.read("/tmp/kb2_no_such_ckpt.bin"), Error);
}

TEST_F(CheckpointFile, RejectsTruncatedFile) {
  kCheckpointFile.write(path_, std::vector<std::byte>(256, std::byte{3}));
  auto raw = slurp(path_);
  ASSERT_GT(raw.size(), kContainerHeaderBytes);

  // Lose the payload tail: header now promises more bytes than exist.
  auto cut = raw;
  cut.resize(raw.size() - 40);
  spit(path_, cut);
  EXPECT_THROW(kCheckpointFile.read(path_), Error);

  // Lose part of the header itself.
  cut.resize(kContainerHeaderBytes / 2);
  spit(path_, cut);
  EXPECT_THROW(kCheckpointFile.read(path_), Error);
}

TEST_F(CheckpointFile, RejectsCorruptedPayload) {
  kCheckpointFile.write(path_, std::vector<std::byte>(256, std::byte{3}));
  auto raw = slurp(path_);
  raw[kContainerHeaderBytes + 17] ^= 0x40;  // one flipped payload bit
  spit(path_, raw);
  EXPECT_THROW(kCheckpointFile.read(path_), Error);
}

TEST_F(CheckpointFile, RejectsBadMagicAndVersion) {
  {  // not a checkpoint at all
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << "this is nobody's checkpoint file, honest                  ";
  }
  EXPECT_THROW(kCheckpointFile.read(path_), Error);

  // Right magic, wrong version — a future format this build cannot read.
  kCheckpointFile.write(path_, std::vector<std::byte>(8, std::byte{1}));
  auto raw = slurp(path_);
  raw[8] = 99;  // version field follows the u64 magic
  spit(path_, raw);
  EXPECT_THROW(kCheckpointFile.read(path_), Error);
}

TEST_F(CheckpointFile, DefectsAreTypedAndAttributed) {
  // Every rejection is a CheckpointError carrying the path and a defect
  // class — the recovery ladder and the chaos gate dispatch on these, so
  // the mapping from damage to defect string is contractual.
  const std::vector<std::byte> payload(256, std::byte{3});
  const std::vector<std::pair<ContainerCorruption, std::string>> cases = {
      {ContainerCorruption::kTruncateHeader, "truncated"},
      {ContainerCorruption::kTruncatePayload, "truncated"},
      {ContainerCorruption::kZeroSpan, "crc_mismatch"},
      {ContainerCorruption::kFlipBit, "crc_mismatch"},
      {ContainerCorruption::kBadMagic, "bad_magic"},
  };
  for (const auto& [mode, defect] : cases) {
    kCheckpointFile.write(path_, payload);
    kCheckpointFile.corrupt(path_, mode, /*seed=*/7);
    try {
      (void)kCheckpointFile.read(path_);
      FAIL() << "corruption mode " << static_cast<int>(mode)
             << " went undetected";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.defect(), defect)
          << "mode " << static_cast<int>(mode) << ": " << e.what();
      EXPECT_EQ(e.path(), path_);
    }
  }
  try {
    (void)kCheckpointFile.read("/tmp/kb2_no_such_ckpt.bin");
    FAIL() << "missing file went undetected";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.defect(), "missing");
  }
}

TEST_F(CheckpointFile, RewriteDemotesThePreviousGeneration) {
  const std::vector<std::byte> v1(64, std::byte{1});
  const std::vector<std::byte> v2(64, std::byte{2});
  kCheckpointFile.write(path_, v1);
  kCheckpointFile.write(path_, v2);
  EXPECT_EQ(kCheckpointFile.read(path_), v2);
  EXPECT_EQ(kCheckpointFile.read(path_ + ".prev"), v1);
  std::remove((path_ + ".prev").c_str());
}

TEST_F(CheckpointFile, FallbackRestoresFromPrevWhenPrimaryIsCorrupt) {
  const std::vector<std::byte> v1(64, std::byte{1});
  const std::vector<std::byte> v2(64, std::byte{2});
  kCheckpointFile.write(path_, v1);
  kCheckpointFile.write(path_, v2);
  kCheckpointFile.corrupt(path_, ContainerCorruption::kFlipBit, 3);

  bool used_previous = false;
  EXPECT_EQ(read_checkpoint_file_or_previous(path_, &used_previous), v1);
  EXPECT_TRUE(used_previous);

  // Both generations corrupt: the PRIMARY's typed error propagates (it
  // names the checkpoint the caller asked for, not the fallback).
  kCheckpointFile.corrupt(path_ + ".prev", ContainerCorruption::kZeroSpan, 3);
  try {
    (void)read_checkpoint_file_or_previous(path_);
    FAIL() << "two corrupt generations must not restore";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.path(), path_);
    EXPECT_EQ(e.defect(), "crc_mismatch");
  }
  std::remove((path_ + ".prev").c_str());
}

// Both formats share one container; these bytes are what older builds wrote
// and read, so they may not move.
TEST(Container, PinsCheckpointAndFlightDumpBytes) {
  testutil::TempPaths tmp;
  const std::string ckpt = tmp.make("kb2_pin_ckpt", ".bin");
  const std::string dump = tmp.make("kb2_pin_dump", ".bin");

  // "123456789" is the CRC-32 check string: its CRC is 0xcbf43926.
  const std::string text = "123456789";
  std::vector<std::byte> payload(text.size());
  std::memcpy(payload.data(), text.data(), text.size());
  kCheckpointFile.write(ckpt, payload);
  const std::vector<char> want = {
      0x42, 0x4b, 0x32, 0x43, 0x4b, 0x50, 0x54, 0x00,  // magic (u64 LE)
      0x02, 0x00, 0x00, 0x00,                          // version 2
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // payload size
      0x26, 0x39, static_cast<char>(0xf4),
      static_cast<char>(0xcb),                         // crc32
      '1',  '2',  '3',  '4',  '5',  '6',  '7',  '8',  '9'};
  EXPECT_EQ(slurp(ckpt), want);

  runtime::RankSegment seg(2, "pin", {}, 8);
  runtime::flight::write_flight_dump(dump, seg, "pin", {});
  const auto raw = slurp(dump);
  ASSERT_GT(raw.size(), kContainerHeaderBytes);
  const auto field = [&](std::size_t at, std::size_t bytes) {
    std::uint64_t v = 0;
    std::memcpy(&v, raw.data() + at, bytes);
    return v;
  };
  EXPECT_EQ(field(0, 8), 0x3130544c46324b42u);  // magic "KB2FLT01"
  const std::span<const std::byte> dump_payload(
      reinterpret_cast<const std::byte*>(raw.data()) + kContainerHeaderBytes,
      raw.size() - kContainerHeaderBytes);
  EXPECT_EQ(field(8, 4), 1u);  // version 1
  EXPECT_EQ(field(12, 8), dump_payload.size());
  EXPECT_EQ(field(20, 4), crc32(dump_payload));

  // Each format's reader refuses the other's file by its magic.
  try {
    (void)kCheckpointFile.read(dump);
    FAIL() << "a flight dump was read as a checkpoint";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.defect(), "bad_magic");
    EXPECT_EQ(std::string(e.what()),
              "checkpoint " + dump + " has bad magic (not a KB2CKPT file)");
  }
  try {
    (void)runtime::flight::read_flight_dump(ckpt);
    FAIL() << "a checkpoint was read as a flight dump";
  } catch (const runtime::flight::FlightDumpError& e) {
    EXPECT_EQ(e.defect(), "bad_magic");
    EXPECT_EQ(std::string(e.what()),
              "flight dump " + ckpt + " has bad magic (not a KB2FLT file)");
  }
}

// ---- Streaming engine state capture ----

data::Dataset stream_data(std::size_t n, unsigned seed) {
  return data::sample(data::make_paper_mixture(6, 3, 1), n, seed);
}

TEST(StreamingCheckpoint, SerializeRestoreRoundTripsExactly) {
  const auto d = stream_data(900, 5);
  StreamingKeyBin2 a(6);
  a.push_batch(d.points);
  a.refit();

  StreamingKeyBin2 b(6);
  {
    ByteWriter w;
    a.serialize(w);
    ByteReader r(w.bytes());
    b.restore(r);
    EXPECT_TRUE(r.exhausted());
  }
  EXPECT_EQ(b.points_seen(), a.points_seen());
  ASSERT_TRUE(b.has_model());
  EXPECT_EQ(engine_bytes(b), engine_bytes(a));
  EXPECT_EQ(model_bytes(b.model()), model_bytes(a.model()));
}

TEST(StreamingCheckpoint, ResumedEngineContinuesTheStreamBitForBit) {
  // Feed half the stream, checkpoint, then feed the second half into both
  // the original and the resumed engine: every divergence — histogram
  // doubling, reservoir RNG draws, envelope tracking — would show up in the
  // final serialized bytes. The 64-row reservoir is already replacing rows
  // when the checkpoint lands; the 4096-row one is still filling.
  const auto d = stream_data(1200, 6);
  testutil::TempPaths tmp;

  for (const std::size_t capacity : {std::size_t{4096}, std::size_t{64}}) {
    const std::string path =
        tmp.make("kb2_ckpt_stream" + std::to_string(capacity), ".bin");
    StreamingKeyBin2 original(6, Params{}, capacity);
    for (std::size_t i = 0; i < 600; ++i) original.push(d.points.row(i));
    original.save_checkpoint(path);
    auto resumed = StreamingKeyBin2::resume_from(path, Params{}, capacity);

    for (std::size_t i = 600; i < 1200; ++i) {
      original.push(d.points.row(i));
      resumed.push(d.points.row(i));
    }
    original.refit();
    resumed.refit();
    EXPECT_EQ(engine_bytes(resumed), engine_bytes(original)) << capacity;
    EXPECT_EQ(model_bytes(resumed.model()), model_bytes(original.model()))
        << capacity;
  }
}

// A matrix block of the version-2 engine payload: a trial's projection or
// its reservoir.
struct MatrixBlock {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::vector<double> values;
};

struct HistogramBlock {
  double lo = 0.0;
  double hi = 0.0;
  std::int32_t depth = 0;
  std::vector<double> counts;  // deepest level
};

// One trial of the payload, field by field, in the order
// StreamingKeyBin2::serialize writes them.
struct TrialBlocks {
  MatrixBlock projection;
  std::vector<std::uint8_t> anchored;
  std::vector<double> seen_lo, seen_hi;
  std::vector<HistogramBlock> hists;
  MatrixBlock reservoir;
};

MatrixBlock read_block(ByteReader& r) {
  MatrixBlock block;
  block.rows = r.read<std::uint64_t>();
  block.cols = r.read<std::uint64_t>();
  block.values = r.read_vec<double>();
  return block;
}

void write_block(ByteWriter& w, const MatrixBlock& block) {
  w.write<std::uint64_t>(block.rows);
  w.write<std::uint64_t>(block.cols);
  w.write_vec(block.values);
}

template <typename T>
void copy_value(ByteReader& r, ByteWriter& w) {
  w.write<T>(r.read<T>());
}

// Re-encode serialized engine state, passing each trial through `edit`.
// The header before the trials and the RNG state and model after them are
// copied verbatim.
std::vector<std::byte> edit_trials(
    const std::vector<std::byte>& bytes,
    const std::function<void(std::size_t, TrialBlocks&)>& edit) {
  ByteReader r(bytes);
  ByteWriter w;
  copy_value<std::uint64_t>(r, w);  // input_dims
  copy_value<std::int32_t>(r, w);   // n_rp
  copy_value<std::int32_t>(r, w);   // max_depth
  copy_value<std::uint64_t>(r, w);  // seed
  const auto trials = r.read<std::uint64_t>();
  w.write<std::uint64_t>(trials);
  copy_value<std::uint64_t>(r, w);  // points_seen
  for (std::size_t t = 0; t < trials; ++t) {
    TrialBlocks b;
    b.projection = read_block(r);
    b.anchored = r.read_vec<std::uint8_t>();
    b.seen_lo = r.read_vec<double>();
    b.seen_hi = r.read_vec<double>();
    b.hists.resize(r.read<std::uint64_t>());
    for (auto& h : b.hists) {
      h.lo = r.read<double>();
      h.hi = r.read<double>();
      h.depth = r.read<std::int32_t>();
      h.counts = r.read_vec<double>();
    }
    b.reservoir = read_block(r);
    edit(t, b);
    write_block(w, b.projection);
    w.write_vec(b.anchored);
    w.write_vec(b.seen_lo);
    w.write_vec(b.seen_hi);
    w.write<std::uint64_t>(b.hists.size());
    for (const auto& h : b.hists) {
      w.write(h.lo);
      w.write(h.hi);
      w.write(h.depth);
      w.write_vec(h.counts);
    }
    write_block(w, b.reservoir);
  }
  auto out = w.take();
  const auto tail = static_cast<std::ptrdiff_t>(r.remaining());
  out.insert(out.end(), bytes.end() - tail, bytes.end());
  return out;
}

// Restore `payload` into a fresh 6-dimension engine and expect an error
// whose message contains `why`.
void expect_restore_error(const std::vector<std::byte>& payload,
                          std::size_t capacity, const std::string& why,
                          const Params& params = {}) {
  StreamingKeyBin2 fresh(6, params, capacity);
  ByteReader r(payload);
  std::string error;
  try {
    fresh.restore(r);
  } catch (const Error& e) {
    error = e.what();
  }
  EXPECT_NE(error.find(why), std::string::npos)
      << "expected '" << why << "', got '" << error << "'";
}

TEST(StreamingCheckpoint, RestoreRejectsMalformedReservoirBlocks) {
  // 200 points into a 64-row reservoir: every trial's block is full and
  // replacement has begun.
  StreamingKeyBin2 a(6, Params{}, 64);
  a.push_batch(stream_data(200, 8).points);
  const auto bytes = engine_bytes(a);
  std::uint64_t trial0_rows = 0;
  const auto unchanged =
      edit_trials(bytes, [&](std::size_t t, TrialBlocks& b) {
        if (t == 0) trial0_rows = b.reservoir.rows;
      });
  ASSERT_EQ(unchanged, bytes);  // the walker mirrors the layout
  ASSERT_EQ(trial0_rows, 64u);

  // Column count other than n_rp (the block keeps rows * cols values).
  expect_restore_error(edit_trials(bytes,
                                   [](std::size_t t, TrialBlocks& b) {
                                     if (t != 0) return;
                                     b.reservoir.rows /= 2;
                                     b.reservoir.cols *= 2;
                                   }),
                       64, "columns");
  // More rows than the engine's capacity.
  expect_restore_error(bytes, 32, "capacity");
  // A value count other than rows * cols.
  expect_restore_error(edit_trials(bytes,
                                   [](std::size_t t, TrialBlocks& b) {
                                     if (t == 0) {
                                       b.reservoir.values.push_back(0.0);
                                     }
                                   }),
                       64, "storage size");
  // Trials that disagree on how many rows the sample holds.
  expect_restore_error(edit_trials(bytes,
                                   [](std::size_t t, TrialBlocks& b) {
                                     if (t != 1) return;
                                     b.reservoir.rows -= 1;
                                     b.reservoir.values.resize(
                                         b.reservoir.rows * b.reservoir.cols);
                                   }),
                       64, "trial 0 holds");
}

TEST(StreamingCheckpoint, RestoreRejectsMalformedEnvelopeAndProjection) {
  // A CRC-valid payload whose envelope or projection has the wrong shape
  // must fail in restore, not index out of bounds on the next push.
  StreamingKeyBin2 a(6, Params{}, 64);
  a.push_batch(stream_data(200, 8).points);
  const auto bytes = engine_bytes(a);
  const auto edit_trial0 = [&](const std::vector<std::byte>& payload,
                               const std::function<void(TrialBlocks&)>& edit) {
    return edit_trials(payload, [&](std::size_t t, TrialBlocks& b) {
      if (t == 0) edit(b);
    });
  };

  // An envelope shorter or longer than n_rp.
  expect_restore_error(
      edit_trial0(bytes, [](TrialBlocks& b) { b.seen_lo.pop_back(); }), 64,
      "seen_lo");
  expect_restore_error(
      edit_trial0(bytes, [](TrialBlocks& b) { b.seen_hi.push_back(0.0); }),
      64, "seen_hi");
  // A transposed projection: n_rp x input_dims, same value count.
  expect_restore_error(edit_trial0(bytes,
                                   [](TrialBlocks& b) {
                                     std::swap(b.projection.rows,
                                               b.projection.cols);
                                   }),
                       64, "projection");
  // A projection where the identity ablation keeps none.
  Params identity;
  identity.use_projection = false;
  StreamingKeyBin2 c(6, identity, 64);
  c.push_batch(stream_data(200, 8).points);
  expect_restore_error(edit_trial0(engine_bytes(c),
                                   [](TrialBlocks& b) {
                                     b.projection = {
                                         6, 6, std::vector<double>(36, 0.0)};
                                   }),
                       64, "projection", identity);
}

TEST(StreamingCheckpoint, RestoreRejectsNonFiniteProjectionEntries) {
  StreamingKeyBin2 a(6, Params{}, 64);
  a.push_batch(stream_data(200, 8).points);
  const auto bytes = engine_bytes(a);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    expect_restore_error(edit_trials(bytes,
                                     [&](std::size_t t, TrialBlocks& b) {
                                       if (t == 2) b.projection.values[7] = bad;
                                     }),
                         64, "projection holds a non-finite value");
  }
}

TEST(StreamingCheckpoint, RestoreRejectsNonFiniteReservoirValues) {
  // A refit keys the reservoir through fused_key, which needs finite rows;
  // push() never stores any other kind.
  StreamingKeyBin2 a(6, Params{}, 64);
  a.push_batch(stream_data(200, 8).points);
  const auto bytes = engine_bytes(a);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::infinity()}) {
    expect_restore_error(edit_trials(bytes,
                                     [&](std::size_t t, TrialBlocks& b) {
                                       if (t == 1) b.reservoir.values[40] = bad;
                                     }),
                         64, "reservoir holds a non-finite value");
  }
}

TEST(StreamingCheckpoint, ReservoirRowsAreEachTrialsProjectionOfThePushedPoint) {
  // push() projects a point once through every trial's matrix, stacked side
  // by side. Until the reservoir is full, row i of trial t must equal
  // project_point of pushed point i through trial t's matrix, bit for bit.
  // The shapes cover a stacked width that is a multiple of 4 (24), one with
  // a partial last lane block (15, 35, 1), more than one lane group (35, 64:
  // the in-situ shape), and points with exact zeros and negative values.
  struct Shape {
    std::size_t input_dims;
    int n_rp;  // 0: the paper's rule
    int trials;
  };
  for (const Shape shape : {Shape{6, 0, 8}, Shape{11, 5, 3}, Shape{9, 7, 5},
                            Shape{4, 1, 1}, Shape{200, 8, 8}}) {
    Params params;
    params.n_rp = shape.n_rp;
    params.bootstrap_trials = shape.trials;
    constexpr std::size_t kCapacity = 64;
    StreamingKeyBin2 engine(shape.input_dims, params, kCapacity);
    Rng rng(shape.input_dims);
    Matrix points(kCapacity, shape.input_dims);
    for (auto& v : points.flat()) {
      v = rng.uniform_int(4) == 0 ? 0.0 : rng.normal(0.0, 3.0);
    }
    engine.push_batch(points);

    std::size_t seen = 0;
    (void)edit_trials(engine_bytes(engine), [&](std::size_t t,
                                                TrialBlocks& b) {
      ++seen;
      const Matrix projection(b.projection.rows, b.projection.cols,
                              b.projection.values);
      ASSERT_EQ(b.reservoir.rows, kCapacity);
      std::vector<double> want(projection.cols());
      for (std::size_t i = 0; i < kCapacity; ++i) {
        project_point(points.row(i), projection, want);
        for (std::size_t j = 0; j < want.size(); ++j) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(
                        b.reservoir.values[i * want.size() + j]),
                    std::bit_cast<std::uint64_t>(want[j]))
              << "input_dims " << shape.input_dims << " trial " << t
              << " row " << i << " column " << j;
        }
      }
    });
    EXPECT_EQ(seen, static_cast<std::size_t>(shape.trials));
  }
}

TEST(StreamingCheckpoint, VersionOneFileFailsAsVersionSkew) {
  // Version 1 wrote one raw reservoir after the trials; this build must
  // refuse such a file rather than misread it.
  testutil::TempPaths tmp;
  const std::string path = tmp.make("kb2_ckpt_v1", ".bin");
  StreamingKeyBin2 a(6);
  a.push_batch(stream_data(50, 7).points);
  a.save_checkpoint(path);
  auto raw = slurp(path);
  raw[8] = 1;  // version field follows the u64 magic
  spit(path, raw);
  try {
    (void)StreamingKeyBin2::resume_from(path);
    FAIL() << "a version-1 checkpoint was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.defect(), "version_skew");
  }
}

TEST(StreamingCheckpoint, RestoreRejectsMismatchedDims) {
  StreamingKeyBin2 a(6);
  a.push_batch(stream_data(50, 7).points);
  ByteWriter w;
  a.serialize(w);

  StreamingKeyBin2 wrong(7);
  ByteReader r(w.bytes());
  EXPECT_THROW(wrong.restore(r), Error);
}

TEST(StreamingCheckpoint, RestoreRejectsTrailingGarbage) {
  StreamingKeyBin2 a(6);
  a.push_batch(stream_data(50, 7).points);
  ByteWriter w;
  a.serialize(w);
  w.write<std::uint32_t>(0xDEADBEEF);  // bytes serialize() never wrote

  testutil::TempPaths tmp;
  const std::string path = tmp.make("kb2_ckpt_trail", ".bin");
  kCheckpointFile.write(path, w.bytes());
  EXPECT_THROW(StreamingKeyBin2::resume_from(path), Error);
}

// ---- Out-of-core kill-and-resume ----

class OutOfCoreCheckpoint : public ::testing::Test {
 protected:
  void SetUp() override {
    input_ = tmp_.make("kb2_ckpt_input", ".bin");
    labels_ = tmp_.make("kb2_ckpt_labels", ".bin");
    ckpt_ = tmp_.make("kb2_ckpt_state", ".bin");
    const auto spec = data::make_paper_mixture(10, 3, 1);
    data::write_binary(data::sample(spec, 4000, 2), input_);
  }
  testutil::TempPaths tmp_;
  std::string input_, labels_, ckpt_;
};

TEST_F(OutOfCoreCheckpoint, KilledThenResumedRunMatchesUninterruptedRun) {
  // Reference: one uninterrupted pass.
  const auto clean = fit_from_file(input_, labels_, {}, /*chunk=*/512);
  const auto clean_labels = read_labels(labels_);
  const auto clean_model = model_bytes(clean.model);

  // "Kill" the run after 3 of 8 chunks: the budget pause models a rank dying
  // between a checkpoint save and the next one.
  CheckpointOptions opts;
  opts.path = ckpt_;
  opts.every_chunks = 2;
  opts.max_chunks = 3;
  const auto paused = fit_from_file(input_, labels_, {}, 512, opts);
  EXPECT_FALSE(paused.completed);
  {
    std::ifstream probe(ckpt_, std::ios::binary);
    EXPECT_TRUE(probe.is_open());  // partial state survived the "death"
  }

  // Restart with the same arguments: resume from the checkpoint, finish,
  // and reproduce the reference fingerprint bit-identically.
  opts.max_chunks = 0;
  const auto resumed = fit_from_file(input_, labels_, {}, 512, opts);
  EXPECT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.points, clean.points);
  EXPECT_EQ(resumed.chunks, clean.chunks);
  EXPECT_EQ(read_labels(labels_), clean_labels);
  EXPECT_EQ(model_bytes(resumed.model), clean_model);

  // Success removes the checkpoint: nothing stale to resume from.
  std::ifstream probe(ckpt_, std::ios::binary);
  EXPECT_FALSE(probe.is_open());
}

TEST_F(OutOfCoreCheckpoint, ResumeAcrossRepeatedPausesStillMatches) {
  const auto clean = fit_from_file(input_, labels_, {}, 512);
  const auto clean_labels = read_labels(labels_);

  CheckpointOptions opts;
  opts.path = ckpt_;
  opts.every_chunks = 1;
  opts.max_chunks = 2;
  OutOfCoreResult last;
  // Die every 2 chunks until the run finally completes.
  for (int attempt = 0; attempt < 16; ++attempt) {
    last = fit_from_file(input_, labels_, {}, 512, opts);
    if (last.completed) break;
  }
  ASSERT_TRUE(last.completed);
  EXPECT_EQ(read_labels(labels_), clean_labels);
  EXPECT_EQ(model_bytes(last.model),
            model_bytes(clean.model));
}

TEST_F(OutOfCoreCheckpoint, ResumeRejectsMismatchedChunkSize) {
  CheckpointOptions opts;
  opts.path = ckpt_;
  opts.every_chunks = 1;
  opts.max_chunks = 2;
  ASSERT_FALSE(fit_from_file(input_, labels_, {}, 512, opts).completed);

  // Same checkpoint, different chunking: the saved cursor is meaningless.
  opts.max_chunks = 0;
  EXPECT_THROW(fit_from_file(input_, labels_, {}, 256, opts), Error);
}

TEST_F(OutOfCoreCheckpoint, ResumeFallsBackToPrevThenRejectsWhenBothCorrupt) {
  // Two checkpoint generations land (every_chunks=1, max_chunks=2), so the
  // atomic writer demoted the first to ".prev". Corrupting the primary must
  // NOT kill the resume anymore — it restores one generation earlier and
  // completes (each remaining chunk is processed exactly once either way).
  // Only when BOTH generations are damaged does the typed error surface.
  CheckpointOptions opts;
  opts.path = ckpt_;
  opts.every_chunks = 1;
  opts.max_chunks = 2;
  ASSERT_FALSE(fit_from_file(input_, labels_, {}, 512, opts).completed);

  auto raw = slurp(ckpt_);
  ASSERT_GT(raw.size(), kContainerHeaderBytes + 8);
  raw[raw.size() - 3] ^= 0x10;
  spit(ckpt_, raw);
  opts.max_chunks = 0;
  EXPECT_TRUE(fit_from_file(input_, labels_, {}, 512, opts).completed)
      << "a corrupt primary with a good .prev generation must resume";

  // The completed run reclaims its checkpoints; pause again to get two
  // fresh generations, then damage both.
  opts.max_chunks = 2;
  ASSERT_FALSE(fit_from_file(input_, labels_, {}, 512, opts).completed);
  opts.max_chunks = 0;
  kCheckpointFile.corrupt(ckpt_, ContainerCorruption::kFlipBit, 5);
  kCheckpointFile.corrupt(ckpt_ + ".prev", ContainerCorruption::kZeroSpan, 5);
  try {
    (void)fit_from_file(input_, labels_, {}, 512, opts);
    FAIL() << "two corrupt generations must not resume";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.path(), ckpt_);
  }
  std::remove((ckpt_ + ".prev").c_str());
}

TEST_F(OutOfCoreCheckpoint, CadenceValidationRejectsZeroEveryChunks) {
  CheckpointOptions opts;
  opts.path = ckpt_;
  opts.every_chunks = 0;
  EXPECT_THROW(fit_from_file(input_, labels_, {}, 512, opts), Error);
}

}  // namespace
}  // namespace keybin2::core

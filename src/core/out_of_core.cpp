#include "core/out_of_core.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "core/checkpoint.hpp"
#include "core/pipeline.hpp"
#include "core/streaming.hpp"

namespace keybin2::core {

namespace {

constexpr std::uint64_t kMagic = 0x4b42324453ULL;  // data/io.cpp's "KB2DS"

// Dataset header: magic + rows + cols + has_labels byte. Chunk i of a run
// with C-point chunks starts at a deterministic offset, which is what makes
// resume-by-seek possible.
constexpr std::size_t kDatasetHeaderBytes = 8 + 8 + 8 + 1;

struct BinaryHeader {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  bool has_labels = false;
};

BinaryHeader read_header(std::ifstream& in, const std::string& path) {
  std::uint64_t magic = 0;
  BinaryHeader h;
  std::uint8_t has_labels = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  KB2_CHECK_MSG(in.good() && magic == kMagic,
                path << " is not a KB2 dataset file");
  in.read(reinterpret_cast<char*>(&h.rows), sizeof(h.rows));
  in.read(reinterpret_cast<char*>(&h.cols), sizeof(h.cols));
  in.read(reinterpret_cast<char*>(&has_labels), sizeof(has_labels));
  KB2_CHECK_MSG(in.good(), "truncated dataset header in " << path);
  h.has_labels = has_labels != 0;
  return h;
}

/// Invoke fn(points_chunk) over the file's rows, `chunk_points` at a time.
template <typename Fn>
std::size_t for_each_chunk(const std::string& path, std::size_t chunk_points,
                           Fn&& fn) {
  std::ifstream in(path, std::ios::binary);
  KB2_CHECK_MSG(in.good(), "cannot open " << path);
  const auto header = read_header(in, path);
  KB2_CHECK_MSG(header.cols >= 1, "dataset has no columns");

  std::size_t chunks = 0;
  std::uint64_t remaining = header.rows;
  while (remaining > 0) {
    const auto take = static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining, chunk_points));
    std::vector<double> flat(take * header.cols);
    in.read(reinterpret_cast<char*>(flat.data()),
            static_cast<std::streamsize>(flat.size() * sizeof(double)));
    KB2_CHECK_MSG(in.good(), "truncated dataset body in " << path);
    fn(Matrix(take, header.cols, std::move(flat)));
    remaining -= take;
    ++chunks;
  }
  return chunks;
}

/// Serialize the pass-1 resume record: chunk cursor + run geometry (for
/// validation on resume) + the full streaming-engine state.
void write_resume_record(const std::string& path, std::uint64_t chunks_done,
                         std::size_t chunk_points, std::uint64_t rows,
                         std::uint64_t cols, const StreamingKeyBin2& engine) {
  ByteWriter w;
  w.write<std::uint64_t>(chunks_done);
  w.write<std::uint64_t>(static_cast<std::uint64_t>(chunk_points));
  w.write<std::uint64_t>(rows);
  w.write<std::uint64_t>(cols);
  engine.serialize(w);
  write_checkpoint_file(path, w.bytes());
}

}  // namespace

OutOfCoreResult fit_from_file(runtime::Context& ctx,
                              const std::string& input_path,
                              const std::string& labels_path,
                              const Params& params,
                              std::size_t chunk_points,
                              const CheckpointOptions& checkpoint) {
  KB2_CHECK_MSG(chunk_points >= 1, "chunk size must be positive");
  const bool checkpointing = !checkpoint.path.empty();
  KB2_CHECK_MSG(!checkpointing || ctx.size() == 1,
                "out-of-core checkpointing is single-rank only: a collective "
                "pass cannot restart from one rank's private file offset");
  KB2_CHECK_MSG(!checkpointing || checkpoint.every_chunks >= 1,
                "checkpoint cadence must be positive");
  auto ooc_scope = ctx.tracer().scope(stage::kOutOfCore);

  // Peek the header for the schema.
  BinaryHeader header;
  {
    std::ifstream in(input_path, std::ios::binary);
    KB2_CHECK_MSG(in.good(), "cannot open " << input_path);
    header = read_header(in, input_path);
  }
  KB2_CHECK_MSG(header.rows > 0, input_path << " holds no points");

  const std::uint64_t total_chunks =
      (header.rows + chunk_points - 1) / chunk_points;

  StreamingKeyBin2 engine(header.cols, params);
  std::uint64_t chunks_done = 0;

  // Resume: a checkpoint from an interrupted run restores the engine and the
  // chunk cursor, after validating it belongs to THIS dataset and geometry.
  if (checkpointing) {
    if (std::ifstream probe(checkpoint.path, std::ios::binary);
        probe.is_open()) {
      const auto payload = read_checkpoint_file_or_previous(checkpoint.path);
      ByteReader r(payload);
      chunks_done = r.read<std::uint64_t>();
      const auto saved_chunk_points = r.read<std::uint64_t>();
      const auto saved_rows = r.read<std::uint64_t>();
      const auto saved_cols = r.read<std::uint64_t>();
      KB2_CHECK_MSG(saved_chunk_points == chunk_points,
                    "checkpoint " << checkpoint.path
                                  << " was taken with chunk_points="
                                  << saved_chunk_points << ", this run uses "
                                  << chunk_points);
      KB2_CHECK_MSG(saved_rows == header.rows && saved_cols == header.cols,
                    "checkpoint " << checkpoint.path << " belongs to a "
                                  << saved_rows << "x" << saved_cols
                                  << " dataset, " << input_path << " is "
                                  << header.rows << "x" << header.cols);
      KB2_CHECK_MSG(chunks_done <= total_chunks,
                    "checkpoint " << checkpoint.path << " cursor "
                                  << chunks_done << " exceeds " << total_chunks
                                  << " chunks");
      engine.restore(r);
      KB2_CHECK_MSG(r.exhausted(), "checkpoint " << checkpoint.path
                                                 << " has trailing bytes");
      ctx.tracer().counter("checkpoint_restores", 1.0);
      ctx.metrics().add("checkpoint_restores");
      ctx.event(runtime::LogLevel::kInfo, "checkpoint_restore",
                runtime::flight::EventType::kCheckpoint, chunks_done,
                {{"path", checkpoint.path},
                 {"chunks_done", std::to_string(chunks_done)}});
    }
  }

  // One bookkeeping point for every resume record written below, so the
  // tracer counter, the metrics counter, and the event stay in step.
  const auto record_checkpoint_write = [&](std::uint64_t cursor,
                                           const char* why) {
    ctx.tracer().counter("checkpoint_writes", 1.0);
    ctx.metrics().add("checkpoint_writes");
    ctx.event(runtime::LogLevel::kInfo, "checkpoint_write",
              runtime::flight::EventType::kCheckpoint, cursor,
              {{"path", checkpoint.path},
               {"chunks_done", std::to_string(cursor)},
               {"reason", why}});
  };

  // Pass 1: histograms (and reservoir) only. With a resume cursor, seek the
  // input straight to the saved chunk boundary — chunk layout is
  // deterministic, so the restart point is a plain file offset.
  OutOfCoreResult result;
  result.dims = header.cols;
  result.chunks = static_cast<std::size_t>(total_chunks);
  {
    auto pass1_scope = ctx.tracer().scope(stage::kPass1Histograms);
    std::ifstream in(input_path, std::ios::binary);
    KB2_CHECK_MSG(in.good(), "cannot open " << input_path);
    in.seekg(static_cast<std::streamoff>(
        kDatasetHeaderBytes +
        chunks_done * chunk_points * header.cols * sizeof(double)));
    KB2_CHECK_MSG(in.good(),
                  "cannot seek to resume offset in " << input_path);

    std::size_t ingested_this_run = 0;
    while (chunks_done < total_chunks) {
      if (checkpointing && checkpoint.max_chunks > 0 &&
          ingested_this_run >= checkpoint.max_chunks) {
        // Budget pause: persist the cursor and hand control back. The next
        // call with the same arguments resumes exactly here, which is how
        // the kill-and-resume tests model a mid-run death deterministically.
        write_resume_record(checkpoint.path, chunks_done, chunk_points,
                            header.rows, header.cols, engine);
        record_checkpoint_write(chunks_done, "budget_pause");
        result.points = engine.points_seen();
        result.completed = false;
        return result;
      }
      const std::uint64_t begin_row = chunks_done * chunk_points;
      const auto take = static_cast<std::size_t>(
          std::min<std::uint64_t>(header.rows - begin_row, chunk_points));
      std::vector<double> flat(take * header.cols);
      in.read(reinterpret_cast<char*>(flat.data()),
              static_cast<std::streamsize>(flat.size() * sizeof(double)));
      KB2_CHECK_MSG(in.good(), "truncated dataset body in " << input_path);
      engine.push_batch(Matrix(take, header.cols, std::move(flat)));
      ++chunks_done;
      ++ingested_this_run;
      if (checkpointing && chunks_done < total_chunks &&
          chunks_done % checkpoint.every_chunks == 0) {
        write_resume_record(checkpoint.path, chunks_done, chunk_points,
                            header.rows, header.cols, engine);
        record_checkpoint_write(chunks_done, "cadence");
      }
    }
  }
  result.points = engine.points_seen();
  result.model = engine.refit(ctx);

  // Pass 2: label every point against the final model, streaming again.
  auto pass2_scope = ctx.tracer().scope(stage::kPass2Label);
  std::ofstream out(labels_path, std::ios::binary);
  KB2_CHECK_MSG(out.good(), "cannot open " << labels_path << " for writing");
  for_each_chunk(input_path, chunk_points, [&](const Matrix& chunk) {
    const auto labels = result.model.predict(chunk);
    out.write(reinterpret_cast<const char*>(labels.data()),
              static_cast<std::streamsize>(labels.size() * sizeof(int)));
  });
  KB2_CHECK_MSG(out.good(), "write to " << labels_path << " failed");
  // The run finished; a stale checkpoint (or its demoted .prev generation)
  // would otherwise resurrect it.
  if (checkpointing) {
    std::remove(checkpoint.path.c_str());
    std::remove((checkpoint.path + ".prev").c_str());
  }
  return result;
}

OutOfCoreResult fit_from_file(const std::string& input_path,
                              const std::string& labels_path,
                              const Params& params,
                              std::size_t chunk_points,
                              const CheckpointOptions& checkpoint) {
  runtime::Context ctx(params.seed);
  return fit_from_file(ctx, input_path, labels_path, params, chunk_points,
                       checkpoint);
}

std::vector<int> read_labels(const std::string& labels_path) {
  std::ifstream in(labels_path, std::ios::binary | std::ios::ate);
  KB2_CHECK_MSG(in.good(), "cannot open " << labels_path);
  const auto bytes = static_cast<std::size_t>(in.tellg());
  KB2_CHECK_MSG(bytes % sizeof(int) == 0,
                labels_path << " is not a label stream");
  std::vector<int> labels(bytes / sizeof(int));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(labels.data()),
          static_cast<std::streamsize>(bytes));
  KB2_CHECK_MSG(in.good(), "truncated label stream " << labels_path);
  return labels;
}

}  // namespace keybin2::core

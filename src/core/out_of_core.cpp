#include "core/out_of_core.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "core/checkpoint.hpp"
#include "core/pipeline.hpp"
#include "core/streaming.hpp"
#include "data/io.hpp"

namespace keybin2::core {

namespace {

/// The chunk loop of both passes: hand chunks [first, last) of
/// `chunk_points` rows each to fn, in file order.
template <typename Fn>
void for_each_chunk(data::BinaryDatasetReader& in, std::size_t chunk_points,
                    std::uint64_t first, std::uint64_t last, Fn&& fn) {
  for (std::uint64_t chunk = first; chunk < last; ++chunk) {
    const std::uint64_t begin_row = chunk * chunk_points;
    fn(in.read_points(begin_row,
                      static_cast<std::size_t>(std::min<std::uint64_t>(
                          in.rows() - begin_row, chunk_points))));
  }
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
  kCheckpointFile.write(path, w.bytes());
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

  // Pass 1 opens the input here: its header sizes the engine and checks a
  // resumed checkpoint before the first chunk is read.
  data::BinaryDatasetReader input(input_path);
  const std::uint64_t rows = input.rows();
  const std::size_t cols = input.cols();
  KB2_CHECK_MSG(rows > 0, input_path << " holds no points");

  const std::uint64_t total_chunks = (rows + chunk_points - 1) / chunk_points;

  StreamingKeyBin2 engine(cols, params);
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
      KB2_CHECK_MSG(saved_rows == rows && saved_cols == cols,
                    "checkpoint " << checkpoint.path << " belongs to a "
                                  << saved_rows << "x" << saved_cols
                                  << " dataset, " << input_path << " is "
                                  << rows << "x" << cols);
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

  // Pass 1: histograms (and reservoir) only, from the resume cursor (chunk
  // layout is deterministic, so the restart point is a plain file offset)
  // up to the chunk budget, if any.
  OutOfCoreResult result;
  result.dims = cols;
  result.chunks = static_cast<std::size_t>(total_chunks);
  const std::uint64_t last_chunk =
      checkpointing && checkpoint.max_chunks > 0
          ? std::min<std::uint64_t>(total_chunks,
                                    chunks_done + checkpoint.max_chunks)
          : total_chunks;
  {
    auto pass1_scope = ctx.tracer().scope(stage::kPass1Histograms);
    for_each_chunk(input, chunk_points, chunks_done, last_chunk,
                   [&](const Matrix& chunk) {
                     engine.push_batch(chunk);
                     ++chunks_done;
                     if (checkpointing && chunks_done < total_chunks &&
                         chunks_done % checkpoint.every_chunks == 0) {
                       write_resume_record(checkpoint.path, chunks_done,
                                           chunk_points, rows, cols, engine);
                       record_checkpoint_write(chunks_done, "cadence");
                     }
                   });
    if (chunks_done < total_chunks) {
      // Budget pause: persist the cursor and hand control back. The next
      // call with the same arguments resumes exactly here, which is how
      // the kill-and-resume tests model a mid-run death deterministically.
      write_resume_record(checkpoint.path, chunks_done, chunk_points, rows,
                          cols, engine);
      record_checkpoint_write(chunks_done, "budget_pause");
      result.points = engine.points_seen();
      result.completed = false;
      return result;
    }
  }
  result.points = engine.points_seen();
  result.model = engine.refit(ctx);

  // Pass 2: label every point against the final model, streaming again.
  auto pass2_scope = ctx.tracer().scope(stage::kPass2Label);
  data::BinaryDatasetReader relabel(input_path);
  std::ofstream out(labels_path, std::ios::binary);
  KB2_CHECK_MSG(out.good(), "cannot open " << labels_path << " for writing");
  for_each_chunk(relabel, chunk_points, 0, total_chunks,
                 [&](const Matrix& chunk) {
                   const auto labels = result.model.predict(chunk);
                   out.write(reinterpret_cast<const char*>(labels.data()),
                             static_cast<std::streamsize>(labels.size() *
                                                          sizeof(int)));
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

// Distributed, privacy-preserving clustering across data sites (paper §1).
//
// Each simulated site owns a private shard of the data; KeyBin2 clusters the
// union WITHOUT any site ever shipping raw points — only per-dimension
// binning histograms and the final model cross site boundaries. The example
// verifies that the distributed result is bit-identical to a centralized
// run (exiting 1 if it is not) and reports how many bytes actually moved.
//
//   ./examples/distributed_sites [sites] [points-per-site] [dims]
#include <cstdio>
#include <cstdlib>

#include "comm/launch.hpp"
#include "core/keybin2.hpp"
#include "data/gaussian_mixture.hpp"
#include "data/partition.hpp"
#include "stats/metrics.hpp"

int main(int argc, char** argv) {
  using namespace keybin2;

  const int sites = argc > 1 ? std::atoi(argv[1]) : 8;
  const std::size_t per_site =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 5000;
  const std::size_t dims = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 64;

  std::printf("%d sites, %zu points each, %zu dimensions.\n", sites, per_site,
              dims);
  const auto spec = data::make_paper_mixture(dims, 4, 7);
  const auto d = data::sample(spec, per_site * static_cast<std::size_t>(sites),
                              11);
  const auto shards = data::shard(d, sites);

  // Distributed run: each "site" is a rank holding only its own shard.
  std::vector<int> combined(d.size());
  int clusters = 0;
  const auto traffic = comm::run_ranks(sites, [&](comm::Communicator& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    const auto result = core::fit(c, shards[r].points);
    const auto ranges = data::partition_rows(d.size(), sites);
    std::copy(result.labels.begin(), result.labels.end(),
              combined.begin() + static_cast<std::ptrdiff_t>(ranges[r].begin));
    if (c.rank() == 0) clusters = result.n_clusters();
  });

  // Centralized reference on the pooled data.
  const auto reference = core::fit(d.points);

  const auto scores = stats::pairwise_scores(combined, d.labels);
  std::printf("\nDistributed KeyBin2: %d clusters, F1 = %.3f vs ground "
              "truth\n",
              clusters, scores.f1);
  const bool identical = combined == reference.labels;
  std::printf("Identical to the centralized run: %s\n",
              identical ? "yes (bit-for-bit)" : "NO");

  const double raw_bytes = static_cast<double>(d.size()) *
                           static_cast<double>(dims) * sizeof(double);
  std::printf("\nCommunication: %llu messages, %.1f KiB total\n",
              static_cast<unsigned long long>(traffic.messages_sent),
              static_cast<double>(traffic.bytes_sent) / 1024.0);
  std::printf("Centralizing the raw data would have moved %.1f MiB "
              "(%.0fx more).\n",
              raw_bytes / (1024.0 * 1024.0),
              raw_bytes / static_cast<double>(traffic.bytes_sent));
  return identical ? 0 : 1;
}

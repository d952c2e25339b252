// Under the keep-all policy the streaming monitor's Phase 1 reads only its
// snapshot window, through the same closed-form kernel the batch learner
// runs.  So LiaMonitor must equal BatchRelearnOracle exactly — loss and
// variances, bit for bit — on every diagnosed tick: at any thread count,
// across drift refreshes of the window, and after a save/restore in
// mid-run, whose image holds the snapshot ring and no cross-products.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "batch_oracle.hpp"
#include "core/monitor.hpp"
#include "io/checkpoint.hpp"
#include "stats/rng.hpp"
#include "test_util.hpp"

namespace losstomo::core {
namespace {

TEST(KeepAllExact, MonitorEqualsBatchOracleBitForBit) {
  stats::Rng mesh_rng(47);
  const auto mesh = losstomo::testing::make_random_mesh(60, 22, mesh_rng);
  const net::ReducedRoutingMatrix rrm(mesh.topo.graph, mesh.paths);
  stats::Rng rng(312);
  const auto v = losstomo::testing::random_variances(rrm.link_count(), rng, 0.3);
  const linalg::Vector mu(rrm.link_count(), -0.05);
  const std::size_t m = 10;
  const std::size_t ticks = 5 * m;
  const std::size_t restore_at = 2 * m + 4;
  const auto y =
      losstomo::testing::synthetic_observations(rrm.matrix(), mu, v, ticks, rng);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    MonitorOptions options{.window = m};
    options.lia.variance.negatives = NegativeCovariancePolicy::kKeep;
    options.lia.variance.threads = threads;
    options.refresh_every = m + 3;  // drift refreshes mid-run

    losstomo::testing::BatchRelearnOracle oracle(rrm.matrix(), options);
    std::optional<LiaMonitor> monitor(std::in_place, rrm.matrix(), options);
    std::size_t compared = 0;
    for (std::size_t l = 0; l < ticks; ++l) {
      if (l == restore_at) {
        // Kill the monitor and resume from its checkpoint image.
        io::CheckpointWriter writer;
        monitor->save_state(writer);
        auto image = writer.finish();
        // The keep-all accumulator is the snapshot ring: no np x np
        // cross-product matrix rides in the image.
        const std::size_t np = rrm.matrix().rows();
        EXPECT_LT(image.size(), np * np * sizeof(double));
        auto reader = io::CheckpointReader::from_bytes(std::move(image));
        monitor.emplace(rrm.matrix(), options);
        monitor->restore_state(reader);
      }
      const auto expected = oracle.observe(y.sample(l));
      const auto got = monitor->observe(y.sample(l));
      ASSERT_EQ(expected.has_value(), got.has_value()) << "tick " << l;
      if (!expected) continue;
      ++compared;
      EXPECT_EQ(expected->loss, got->loss) << "tick " << l;
      EXPECT_EQ(oracle.variances().v, monitor->variances().v) << "tick " << l;
    }
    EXPECT_EQ(compared, ticks - m);
  }
}

}  // namespace
}  // namespace losstomo::core

// Under the keep-all policy the streaming monitor's Phase 1 reads only its
// snapshot window, through the same closed-form kernel the batch learner
// runs.  So LiaMonitor must equal BatchRelearnOracle exactly — loss and
// variances, bit for bit — on every diagnosed tick: at any thread count,
// across drift refreshes of the window, and after a save/restore in
// mid-run, whose image holds the snapshot ring and no cross-products.
// Two inputs: Gaussian observations on a random mesh, and the probe
// simulator's snapshots on a 120-node random tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "batch_oracle.hpp"
#include "core/monitor.hpp"
#include "io/checkpoint.hpp"
#include "sim/probe_sim.hpp"
#include "stats/rng.hpp"
#include "test_util.hpp"
#include "topology/generators.hpp"

namespace losstomo::core {
namespace {

// Feeds 5m snapshots of `y` to a keep-all monitor and to the oracle, with
// drift refreshes mid-run and a kill-and-restore at tick 2m + 4.  With
// `check_image_size`, the image must be smaller than one np x np matrix;
// that says something only where np^2 outweighs the cached nc x nc factor.
void expect_monitor_equals_oracle(const linalg::SparseBinaryMatrix& r,
                                  const stats::SnapshotMatrix& y,
                                  std::size_t m, bool check_image_size) {
  const std::size_t ticks = 5 * m;
  ASSERT_EQ(y.count(), ticks);
  const std::size_t restore_at = 2 * m + 4;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    MonitorOptions options{.window = m};
    options.lia.variance.negatives = NegativeCovariancePolicy::kKeep;
    options.lia.variance.threads = threads;
    options.refresh_every = m + 3;  // drift refreshes mid-run

    losstomo::testing::BatchRelearnOracle oracle(r, options);
    std::optional<LiaMonitor> monitor(std::in_place, r, options);
    std::size_t compared = 0;
    for (std::size_t l = 0; l < ticks; ++l) {
      if (l == restore_at) {
        // Kill the monitor and resume from its checkpoint image.
        io::CheckpointWriter writer;
        monitor->save_state(writer);
        auto image = writer.finish();
        // The keep-all accumulator is the snapshot ring: no np x np
        // cross-product matrix rides in the image.
        if (check_image_size) {
          const std::size_t np = r.rows();
          EXPECT_LT(image.size(), np * np * sizeof(double));
        }
        auto reader = io::CheckpointReader::from_bytes(std::move(image));
        monitor.emplace(r, options);
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

TEST(KeepAllExact, MonitorEqualsBatchOracleBitForBit) {
  {
    SCOPED_TRACE("random mesh");
    stats::Rng mesh_rng(47);
    const auto mesh = losstomo::testing::make_random_mesh(60, 22, mesh_rng);
    const net::ReducedRoutingMatrix rrm(mesh.topo.graph, mesh.paths);
    stats::Rng rng(312);
    const auto v =
        losstomo::testing::random_variances(rrm.link_count(), rng, 0.3);
    const linalg::Vector mu(rrm.link_count(), -0.05);
    const std::size_t m = 10;
    const auto y = losstomo::testing::synthetic_observations(rrm.matrix(), mu,
                                                             v, 5 * m, rng);
    expect_monitor_equals_oracle(rrm.matrix(), y, m, true);
  }
  {
    // 60 paths over 91 links: the factor, not C, would dominate an image.
    SCOPED_TRACE("simulated random tree");
    stats::Rng tree_rng(41);
    const auto tree = topology::make_random_tree(
        {.nodes = 120, .max_branching = 8}, tree_rng);
    const net::ReducedRoutingMatrix rrm(tree.graph,
                                        topology::tree_paths(tree));
    sim::ScenarioConfig config;
    config.p = 0.05;
    sim::SnapshotSimulator simulator(tree.graph, rrm, config, 287);
    const std::size_t m = 25;
    stats::SnapshotMatrix y(rrm.path_count(), 5 * m);
    for (std::size_t l = 0; l < y.count(); ++l) {
      const auto& snapshot = simulator.next().path_log_trans;
      std::copy(snapshot.begin(), snapshot.end(), y.sample(l).begin());
    }
    expect_monitor_equals_oracle(rrm.matrix(), y, m, false);
  }
}

}  // namespace
}  // namespace losstomo::core

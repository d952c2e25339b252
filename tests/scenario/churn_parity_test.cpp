// The churn parity acceptance test: a scenario with at least one event of
// every type — path join, path leave, route change, link down (and up),
// congestion-regime shift, growth — driven through ScenarioRunner, where
// the streaming monitor must stay within 1e-10 of the batch relearn oracle
// (tests/batch_oracle.hpp) at every post-event tick, at 1, 2, and 8
// threads.  G follows the churn by exact integer updates and every relearn
// factorizes it once: the factor counter must equal the relearn count.
//
// Instance notes: the mesh (40 nodes / 24 hosts / topology seed 3) keeps
// the drop-negative normal matrix positive definite through every event of
// this timeline (no jitter on any tick — asserted), and min_good_loss
// keeps every path strictly lossy so no pair covariance sits exactly on
// the drop-policy's zero boundary (a constant, lossless path has *exactly
// zero* sample covariance, where the monitor and the oracle may
// legitimately round to different sides — see core/monitor.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "batch_oracle.hpp"
#include "core/monitor.hpp"
#include "linalg/matrix.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "test_util.hpp"

namespace losstomo::scenario {
namespace {

ScenarioSpec parity_spec() {
  ScenarioSpec spec;
  spec.name = "churn-parity";
  spec.topology.kind = TopologySpec::Kind::kMesh;
  spec.topology.nodes = 40;
  spec.topology.hosts = 24;
  spec.topology.seed = 3;
  spec.window = 25;
  spec.ticks = 110;
  spec.seed = 11;
  spec.p = 0.6;
  spec.probes = 600;
  spec.min_good_loss = 0.002;
  spec.reserve_paths = 3;
  spec.events = {
      {.tick = 30, .type = EventType::kPathLeave, .path = 3},
      {.tick = 34, .type = EventType::kPathJoin, .path = 3},
      {.tick = 45, .type = EventType::kRouteChange, .path = 5},
      {.tick = 55, .type = EventType::kLinkDown, .link = 2},
      {.tick = 70, .type = EventType::kLinkUp, .link = 2},
      {.tick = 80, .type = EventType::kRegimeShift, .value = 0.35},
      {.tick = 90, .type = EventType::kGrow, .count = 3},
  };
  return spec;
}

using Reference = losstomo::testing::OracleRun;

// The oracle relearns from scratch every tick over the live-and-warm
// submatrix — the ground truth churned streaming must reproduce.  Batch
// results are bit-identical at any thread count, so one run suffices.
const Reference& shared_reference() {
  static const Reference ref = losstomo::testing::oracle_scenario_run(
      parity_spec(), losstomo::testing::scratch_file("feed.bin"));
  return ref;
}

void expect_parity(const ScenarioSpec& spec,
                   const core::MonitorOptions& options, const Reference& ref,
                   const std::string& label) {
  ScenarioRunner runner(spec, options);
  std::size_t compared = 0;
  while (runner.ticks_run() < spec.ticks) {
    const std::size_t tick = runner.ticks_run();
    const auto inference = runner.step();
    ASSERT_EQ(inference.has_value(), ref.inferences[tick].has_value())
        << label << " tick " << tick;
    if (!inference) continue;
    ++compared;
    EXPECT_LE(
        linalg::max_abs_diff(inference->loss, ref.inferences[tick]->loss),
        1e-10)
        << label << " tick " << tick;
    EXPECT_LE(
        linalg::max_abs_diff(runner.monitor().variances().v,
                             ref.variances[tick]),
        1e-10)
        << label << " tick " << tick;
    // The instance is chosen so the system never needs regularization —
    // the precondition for tight cross-engine parity.
    EXPECT_DOUBLE_EQ(runner.monitor().variances().jitter_used, 0.0)
        << label << " tick " << tick;
  }
  EXPECT_EQ(compared, spec.ticks - spec.window) << label;

  // One factorization per relearn, and a relearn on every diagnosed tick.
  EXPECT_EQ(runner.monitor().streaming_equations().refactorizations(),
            compared)
      << label;
}

TEST(ChurnParity, AllEventTypesMatchBatchAtAnyThreadCount) {
  const auto spec = parity_spec();
  ASSERT_GE(spec.timeline().count(EventType::kPathJoin), 1u);
  ASSERT_GE(spec.timeline().count(EventType::kPathLeave), 1u);
  ASSERT_GE(spec.timeline().count(EventType::kRouteChange), 1u);
  ASSERT_GE(spec.timeline().count(EventType::kLinkDown), 1u);
  ASSERT_GE(spec.timeline().count(EventType::kRegimeShift), 1u);
  ASSERT_GE(spec.timeline().count(EventType::kGrow), 1u);
  const Reference& ref = shared_reference();

  for (const std::size_t threads : {1u, 2u, 8u}) {
    core::MonitorOptions options;
    options.lia.variance.threads = threads;
    expect_parity(spec, options, ref, "threads=" + std::to_string(threads));
  }
}

TEST(ChurnParity, CountersShowOneFactorizationPerRelearn) {
  const auto spec = parity_spec();
  ScenarioRunner runner(spec, core::MonitorOptions{});
  const auto outcome = runner.run();
  ASSERT_GT(outcome.diagnosed, 0u);
  EXPECT_EQ(runner.monitor().streaming_equations().refactorizations(),
            outcome.diagnosed);
}

TEST(ChurnParity, PairIndexedAccumulatorMatchesBatch) {
  const auto spec = parity_spec();
  const Reference& ref = shared_reference();
  for (const std::size_t threads : {1u, 8u}) {
    core::MonitorOptions options;
    options.accumulator = core::CovarianceAccumulator::kSharingPairs;
    options.lia.variance.threads = threads;
    expect_parity(spec, options, ref,
                  "pairs/threads=" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace losstomo::scenario

// The telemetry determinism contract, pinned end to end: every metric
// registered kDeterministic must be BIT-identical across thread counts
// and a checkpoint/restore.  The instrumented components
// earn this by *publishing* counters from their serialized engine state
// (obs::Registry docs) — so this fuzzer is the tripwire for anyone who
// later wires a live, order-dependent count into a deterministic slot.
//
// The drill: one churn-heavy branching-tree scenario (every event type
// the runner grows through, including link discovery) driven to
// completion under threads ∈ {1,2,8}, each run with its own registry;
// all three deterministic_values() maps must be equal.
// Then the checkpoint leg: save mid-run, restore into a fresh runner and
// a fresh registry, and require the map to match at the restore point and
// again at the end of the run.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "core/monitor.hpp"
#include "obs/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "test_util.hpp"

namespace losstomo::obs {
namespace {

using scenario::EventType;
using scenario::ScenarioRunner;
using scenario::ScenarioSpec;
using scenario::TopologySpec;

ScenarioSpec fuzz_spec() {
  ScenarioSpec spec;
  spec.name = "telemetry-fuzz";
  spec.topology.kind = TopologySpec::Kind::kBranchingTree;
  spec.topology.depth = 3;
  spec.topology.branching = 3;
  spec.topology.extra_leaves = 2;
  spec.topology.seed = 5;
  spec.window = 12;
  spec.ticks = 48;
  spec.seed = 17;
  spec.p = 0.3;
  spec.probes = 400;
  spec.min_good_loss = 0.002;
  spec.reserve_paths = 4;
  spec.events = {
      {.tick = 16, .type = EventType::kPathLeave, .path = 2},
      {.tick = 20, .type = EventType::kPathJoin, .path = 2},
      {.tick = 24, .type = EventType::kLinkDown, .link = 1},
      {.tick = 30, .type = EventType::kLinkUp, .link = 1},
      {.tick = 34, .type = EventType::kRegimeShift, .value = 0.2},
      {.tick = 38, .type = EventType::kGrow, .count = 2},
      {.tick = 42, .type = EventType::kGrowLinks, .count = 2},
  };
  return spec;
}

// All runs use the sharing-pairs accumulator so the published metric SET
// (monitor.pairs included) is identical.
core::MonitorOptions options_for(std::size_t threads, Registry& registry) {
  core::MonitorOptions options;
  options.lia.variance.threads = threads;
  options.accumulator = core::CovarianceAccumulator::kSharingPairs;
  options.telemetry = &registry;
  return options;
}

std::map<std::string, std::uint64_t> run_to_completion(std::size_t threads) {
  Registry registry;
  ScenarioRunner runner(fuzz_spec(), options_for(threads, registry));
  while (runner.ticks_run() < runner.spec().ticks) runner.step();
  return registry.deterministic_values();
}

TEST(TelemetryDeterminism, BitIdenticalAcrossThreads) {
  const auto reference = run_to_completion(1);
  ASSERT_FALSE(reference.empty());
  // Spot checks that the map actually covers the engine counters this
  // fuzzer exists to pin — an accidentally-empty registry passes nothing.
  EXPECT_TRUE(reference.contains("monitor.links_grown"));
  EXPECT_TRUE(reference.contains("monitor.refactorizations"));
  EXPECT_TRUE(reference.contains("monitor.pairs"));
  EXPECT_TRUE(reference.contains("scenario.ticks"));
  EXPECT_TRUE(reference.contains("scenario.events.grow_links"));

  for (const std::size_t threads : {1, 2, 8}) {
    EXPECT_EQ(run_to_completion(threads), reference)
        << "threads=" << threads;
  }
}

TEST(TelemetryDeterminism, CheckpointRestoreResumesCountersExactly) {
  const std::string file =
      losstomo::testing::scratch_file("telemetry.ckpt");
  const auto spec = fuzz_spec();
  const std::size_t kill_at = 26;  // past churn, mid link-down forcing

  // Reference run records the deterministic map at the kill tick and at
  // the end.
  Registry ref_registry;
  ScenarioRunner reference(spec, options_for(2, ref_registry));
  while (reference.ticks_run() < kill_at) reference.step();
  reference.save_checkpoint(file);
  const auto at_kill = ref_registry.deterministic_values();
  while (reference.ticks_run() < spec.ticks) reference.step();
  const auto at_end = ref_registry.deterministic_values();

  // A fresh runner + fresh registry restored from the file must publish
  // the identical map immediately, and stay identical to the end — at a
  // different thread count for good measure (threads are a pure execution
  // knob, not part of the checkpoint identity).
  Registry resumed_registry;
  ScenarioRunner resumed(spec, options_for(8, resumed_registry));
  resumed.restore_checkpoint(file);
  EXPECT_EQ(resumed_registry.deterministic_values(), at_kill);
  while (resumed.ticks_run() < spec.ticks) resumed.step();
  EXPECT_EQ(resumed_registry.deterministic_values(), at_end);

  // The per-type event ledger came back too (it feeds the counters).
  EXPECT_EQ(resumed.event_counts(), reference.event_counts());
}

}  // namespace
}  // namespace losstomo::obs

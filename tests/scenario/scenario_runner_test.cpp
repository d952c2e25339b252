// ScenarioRunner mechanics: universe layout, event application, spec
// validation against the generated topology, and determinism (two runners
// over one spec see identical snapshots and produce identical outcomes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/monitor.hpp"
#include "linalg/matrix.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "sim/loss_model.hpp"

namespace losstomo::scenario {
namespace {

ScenarioSpec small_mesh_spec() {
  ScenarioSpec spec;
  spec.name = "runner-test";
  spec.topology.kind = TopologySpec::Kind::kMesh;
  spec.topology.nodes = 40;
  spec.topology.hosts = 10;
  spec.topology.seed = 3;
  spec.window = 10;
  spec.ticks = 40;
  spec.seed = 5;
  spec.probes = 200;
  spec.min_good_loss = 0.002;
  spec.reserve_paths = 2;
  spec.events = {
      {.tick = 12, .type = EventType::kPathLeave, .path = 1},
      {.tick = 15, .type = EventType::kPathJoin, .path = 1},
      {.tick = 18, .type = EventType::kRouteChange, .path = 2},
      {.tick = 20, .type = EventType::kLinkDown, .link = 0},
      {.tick = 24, .type = EventType::kLinkUp, .link = 0},
      {.tick = 26, .type = EventType::kRegimeShift, .value = 0.3},
      {.tick = 28, .type = EventType::kGrow, .count = 2},
  };
  return spec;
}

TEST(ScenarioRunner, LaysOutUniverseAndAppliesEvents) {
  ScenarioRunner runner(small_mesh_spec(), {});
  const std::size_t base = runner.base_path_count();
  // Universe = (base - reserve) initial rows + 1 reroute alternate + 2
  // reserve rows appended in event order.
  EXPECT_EQ(runner.universe().path_count(), base + 1);
  EXPECT_EQ(runner.monitor().routing().rows(), base - 2);

  std::size_t events_seen = 0;
  const auto outcome = runner.run(
      [&](std::size_t tick, std::size_t events,
          const std::optional<core::LossInference>& inference) {
        events_seen += events;
        if (tick < 10) {
          EXPECT_FALSE(inference.has_value());
        } else {
          EXPECT_TRUE(inference.has_value()) << tick;
        }
      });
  EXPECT_EQ(outcome.ticks, 40u);
  EXPECT_EQ(outcome.events_applied, 7u);
  EXPECT_EQ(events_seen, 7u);
  EXPECT_EQ(outcome.diagnosed, 30u);
  // Path 2's old route left, its alternate + 2 grown paths joined.
  EXPECT_EQ(outcome.active_paths_end, base - 2 - 1 + 1 + 2);
  // Monitor learned every appended row at its universe index.
  EXPECT_EQ(runner.monitor().routing().rows(), runner.universe().path_count());
  EXPECT_FALSE(runner.monitor().path_active(2));
  EXPECT_GT(outcome.steady_tick_seconds, 0.0);
  EXPECT_GT(outcome.event_tick_seconds, 0.0);
}

TEST(ScenarioRunner, DeterministicAcrossRuns) {
  ScenarioRunner a(small_mesh_spec(), {});
  ScenarioRunner b(small_mesh_spec(), {});
  while (a.ticks_run() < a.spec().ticks) {
    const auto ia = a.step();
    const auto ib = b.step();
    ASSERT_EQ(ia.has_value(), ib.has_value());
    if (!ia) continue;
    EXPECT_EQ(linalg::max_abs_diff(ia->loss, ib->loss), 0.0);
  }
}

TEST(ScenarioRunner, InitialPathsStartRetired) {
  auto spec = small_mesh_spec();
  spec.events.clear();
  spec.reserve_paths = 0;
  spec.initial_paths = 5;
  ScenarioRunner runner(spec, {});
  EXPECT_EQ(runner.monitor().active_path_count(), 5u);
  for (std::size_t i = 5; i < runner.monitor().routing().rows(); ++i) {
    EXPECT_FALSE(runner.monitor().path_active(i));
  }
}

TEST(ScenarioRunner, ValidatesSpecAgainstTopology) {
  // Reroute on a tree: no alternate route exists.
  {
    ScenarioSpec spec;
    spec.topology.kind = TopologySpec::Kind::kTree;
    spec.topology.nodes = 60;
    spec.window = 8;
    spec.ticks = 20;
    spec.events = {{.tick = 10, .type = EventType::kRouteChange, .path = 0}};
    EXPECT_THROW(ScenarioRunner(spec, {}), std::invalid_argument);
  }
  // A second reroute of the same path (its alternate would duplicate).
  {
    auto spec = small_mesh_spec();
    spec.events = {
        {.tick = 12, .type = EventType::kRouteChange, .path = 2},
        {.tick = 20, .type = EventType::kRouteChange, .path = 2},
    };
    EXPECT_THROW(ScenarioRunner(spec, {}), std::invalid_argument);
  }
  // Grow beyond the reserve pool.
  {
    auto spec = small_mesh_spec();
    spec.events = {{.tick = 12, .type = EventType::kGrow, .count = 99}};
    EXPECT_THROW(ScenarioRunner(spec, {}), std::invalid_argument);
  }
  // COMBINED grow + grow_links consumption beyond the reserve pool: each
  // event alone fits (reserve 2), together they over-consume — the
  // pending-addition queue would run dry at apply time.  Mixing in a
  // reroute must not mask the check (reroutes pop the queue but not the
  // pool).
  {
    auto spec = small_mesh_spec();
    spec.events = {
        {.tick = 10, .type = EventType::kRouteChange, .path = 2},
        {.tick = 12, .type = EventType::kGrow, .count = 2},
        {.tick = 14, .type = EventType::kGrowLinks, .count = 1},
    };
    EXPECT_THROW(ScenarioRunner(spec, {}), std::invalid_argument);
  }
  // Grow with count 0 (both kinds) is rejected by spec validation.
  {
    auto spec = small_mesh_spec();
    spec.events = {{.tick = 12, .type = EventType::kGrow, .count = 0}};
    EXPECT_THROW(ScenarioRunner(spec, {}), std::invalid_argument);
    spec.events = {{.tick = 12, .type = EventType::kGrowLinks, .count = 0}};
    EXPECT_THROW(ScenarioRunner(spec, {}), std::invalid_argument);
  }
  // Join of an out-of-range path.
  {
    auto spec = small_mesh_spec();
    spec.events = {{.tick = 12, .type = EventType::kPathJoin, .path = 10000}};
    EXPECT_THROW(ScenarioRunner(spec, {}), std::invalid_argument);
  }
  // Link event on an unknown link.
  {
    auto spec = small_mesh_spec();
    spec.events = {{.tick = 12, .type = EventType::kLinkDown, .link = 100000}};
    EXPECT_THROW(ScenarioRunner(spec, {}), std::invalid_argument);
  }
}

// Regression (min_good_loss clamp): the floor must never LOWER a
// configured good_lo that already exceeds it — the seed overwrote good_lo
// unconditionally, silently shrinking the good-loss floor.
TEST(ScenarioRunner, MinGoodLossIsAFloorNotAnOverwrite) {
  const auto defaults = sim::LossModelConfig::llrd1_calibrated();
  // A floor below the calibrated good range must leave good_hi untouched
  // and only raise good_lo.
  {
    auto spec = small_mesh_spec();
    spec.min_good_loss = 1e-5;
    ScenarioRunner runner(spec, {});
    const auto& model = runner.simulator().config().loss_model;
    EXPECT_DOUBLE_EQ(model.good_lo, std::max(defaults.good_lo, 1e-5));
    EXPECT_DOUBLE_EQ(model.good_hi, defaults.good_hi);
    EXPECT_LE(model.good_lo, model.good_hi);
  }
  // A floor above the whole calibrated range raises both bounds to it.
  {
    auto spec = small_mesh_spec();
    spec.min_good_loss = 0.01;
    ScenarioRunner runner(spec, {});
    const auto& model = runner.simulator().config().loss_model;
    EXPECT_DOUBLE_EQ(model.good_lo, 0.01);
    EXPECT_DOUBLE_EQ(model.good_hi, 0.01);
  }
}

// A script mixing reroutes with both grow kinds must keep the pending-
// addition queue aligned end to end: every appended monitor row lands at
// its universe index and the queue is exactly drained.
TEST(ScenarioRunner, MixedRerouteAndGrowStayAligned) {
  auto spec = small_mesh_spec();
  spec.events = {
      {.tick = 12, .type = EventType::kRouteChange, .path = 2},
      {.tick = 14, .type = EventType::kGrow, .count = 1},
      {.tick = 16, .type = EventType::kGrowLinks, .count = 1},
      {.tick = 18, .type = EventType::kRouteChange, .path = 4},
  };
  ScenarioRunner runner(spec, {});
  const auto outcome = runner.run();
  EXPECT_EQ(outcome.events_applied, 4u);
  EXPECT_EQ(runner.monitor().routing().rows(), runner.universe().path_count());
}

// Link-discovery mode: a grow_links script starts the monitor on the
// links its known rows cover and appends the fresh ones mid-run; without
// grow_links events the mapping stays the identity over the whole
// universe basis.
TEST(ScenarioRunner, GrowLinksDiscoversFreshColumns) {
  // A tree universe guarantees fresh links: every root-to-leaf path owns
  // its leaf virtual link exclusively, so reserve rows held for
  // grow_links keep those links out of the initial basis.
  auto spec = small_mesh_spec();
  spec.topology.kind = TopologySpec::Kind::kTree;
  spec.topology.nodes = 60;
  spec.events = {{.tick = 15, .type = EventType::kGrowLinks, .count = 2}};
  ScenarioRunner runner(spec, {});
  const std::size_t universe_links = runner.universe().link_count();
  const std::size_t initial_cols = runner.monitor().routing().cols();
  EXPECT_LE(initial_cols, universe_links);
  (void)runner.run();
  const std::size_t final_cols = runner.monitor().routing().cols();
  EXPECT_EQ(final_cols, universe_links);
  EXPECT_EQ(runner.monitor_links().size(), universe_links);
  // The mapping is a bijection onto the universe basis, identity on the
  // initially known prefix's ascending layout.
  std::vector<std::uint8_t> seen(universe_links, 0);
  for (const auto k : runner.monitor_links()) {
    ASSERT_LT(k, universe_links);
    EXPECT_EQ(seen[k], 0);
    seen[k] = 1;
  }
  // This instance genuinely discovers links mid-run (otherwise the test
  // would pin nothing; reseed the topology if generation ever changes).
  EXPECT_LT(initial_cols, universe_links);
  const auto& eqs = runner.monitor().streaming_equations();
  EXPECT_EQ(eqs.links_grown(), universe_links - initial_cols);
}

// Lazy simulation must not change anything the monitor ever reads: the
// same spec with lazy off produces bit-identical inferences.
TEST(ScenarioRunner, LazySimulationMatchesFullSimulation) {
  auto lazy_spec = small_mesh_spec();
  auto full_spec = small_mesh_spec();
  full_spec.lazy_simulation = false;
  ASSERT_TRUE(lazy_spec.lazy_simulation);
  ScenarioRunner lazy(lazy_spec, {});
  ScenarioRunner full(full_spec, {});
  while (lazy.ticks_run() < lazy_spec.ticks) {
    const auto a = lazy.step();
    const auto b = full.step();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) continue;
    EXPECT_EQ(linalg::max_abs_diff(a->loss, b->loss), 0.0);
  }
  // Link-level truth is identical too (the loss processes are per unit
  // and consume the same RNG stream either way).
  EXPECT_EQ(linalg::max_abs_diff(lazy.last_snapshot().link_true_loss,
                                 full.last_snapshot().link_true_loss),
            0.0);
}

TEST(ScenarioRunner, LinkDownRaisesMeasuredLossOnAffectedPaths) {
  auto spec = small_mesh_spec();
  spec.p = 0.0;  // only the forced failure produces meaningful loss
  spec.events = {{.tick = 15, .type = EventType::kLinkDown, .link = 0,
                  .value = 0.5}};
  ScenarioRunner runner(spec, {});
  // Find a universe path through virtual link 0.
  const auto& r = runner.universe().matrix();
  std::size_t victim = r.rows();
  for (std::size_t i = 0; i < runner.monitor().routing().rows(); ++i) {
    if (r.contains(i, 0)) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, r.rows());
  double before = 0.0, after = 0.0;
  while (runner.ticks_run() < spec.ticks) {
    (void)runner.step();
    const double loss = 1.0 - runner.last_snapshot().path_trans[victim];
    if (runner.ticks_run() - 1 < 15) {
      before = std::max(before, loss);
    } else {
      after = std::max(after, loss);
    }
  }
  // Forced 50% loss dwarfs anything the stationary regime produced.
  EXPECT_GT(after, 0.3);
  EXPECT_LT(before, 0.3);
}

}  // namespace
}  // namespace losstomo::scenario

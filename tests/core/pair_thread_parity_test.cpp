// Randomized thread-count parity harness for the flat pair-indexed
// monitor (kSharingPairs accumulator): the thread count must NEVER change
// an inference.
//
// Two fuzz regimes, both seeded and fully deterministic:
//
//  * Scenario-driven (tight regime): seeded random specs over the
//    constructive branching-tree family (topology::make_branching_tree —
//    every junction branches among the initial paths, every fresh link
//    attaches at a branching junction) with random churn scripts (leaves,
//    rejoins, grow_links bursts), driven through ScenarioRunner at thread
//    counts {1,2,8}.  Inferences must be BIT-IDENTICAL to the threads=1
//    run, with exactly ONE factorization per run, zero downdate
//    fallbacks, zero jitter.
//
//  * Synthetic-feed (degraded regime): a noisy Gaussian feed over the
//    same tree family whose window covariances routinely drop equations
//    until G goes singular — the jitter / rank-revealing / refactorize
//    degradation path.  threads=8 must track threads=1 bit-identically
//    THERE TOO, including every factor-cache counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "net/graph.hpp"
#include "net/routing_matrix.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "stats/rng.hpp"
#include "topology/generators.hpp"

namespace losstomo::core {
namespace {

// ---------------------------------------------------------------------------
// Scenario-driven fuzz: tight-parity regime.
// ---------------------------------------------------------------------------

// Seeded random scenario over the well-conditioned branching-tree family:
// random leave/rejoin pairs on distinct initial paths plus grow_links
// bursts consuming every extra leaf (each one a fresh link at a junction
// that already branches).
scenario::ScenarioSpec random_spec(std::uint64_t seed) {
  stats::Rng rng(seed);
  scenario::ScenarioSpec spec;
  spec.name = "pair-thread-parity-" + std::to_string(seed);
  // branching 4, not 2: a binary junction that loses one path stops
  // branching and leaves its two links indistinguishable (exact
  // singularity), so leave events demand a third child — and under the
  // drop-negative policy sample-covariance noise drops a sizeable
  // fraction of pair equations every tick (~14% per pair at this window),
  // so each link needs enough INDEPENDENT pairs that a simultaneous drop
  // burst cannot sever it from the equations.  Depth 3 x branching 4
  // (64 core paths) gives that redundancy; smaller overlays go singular
  // on unlucky ticks.  NOTE: the instances are seed-deterministic — if
  // the draw sequence below changes, re-validate that every seed still
  // holds refactorizations == 1.
  spec.topology.kind = scenario::TopologySpec::Kind::kBranchingTree;
  spec.topology.depth = 3;
  spec.topology.branching = 4;
  spec.topology.extra_leaves = 2 + rng.index(3);  // 2-4 growth leaves
  spec.topology.seed = seed;
  // The proven tight-parity feed (see churn_parity_test).  Equations DO
  // still drop under the drop-negative policy — window 30 plus the
  // overlay's pair redundancy keeps G nonsingular through every drop
  // pattern the seeds produce (jitter_used == 0 is asserted every tick).
  spec.window = 30;
  spec.ticks = 70;
  spec.seed = seed * 7 + 1;
  spec.p = 0.6;
  spec.probes = 800;
  spec.min_good_loss = 0.002;
  spec.reserve_paths = spec.topology.extra_leaves;

  std::size_t initial = 1;
  for (std::size_t d = 0; d < spec.topology.depth; ++d) {
    initial *= spec.topology.branching;
  }
  const auto event_tick = [&] { return 28 + rng.index(32); };

  const auto push = [&](std::size_t tick, scenario::EventType type,
                        std::size_t path_or_count) {
    scenario::Event event;
    event.tick = tick;
    event.type = type;
    if (type == scenario::EventType::kGrowLinks) {
      event.count = path_or_count;
    } else {
      event.path = path_or_count;
    }
    spec.events.push_back(event);
  };

  // Two leave/rejoin pairs on paths under DIFFERENT leaf-parent
  // junctions: two simultaneous leaves under the same 3-ary leaf parent
  // would collapse it to one covered child anyway.
  const std::size_t a = rng.index(initial);
  std::size_t b = rng.index(initial);
  if (b / spec.topology.branching == a / spec.topology.branching) {
    b = (b + spec.topology.branching) % initial;
  }
  for (const std::size_t path : {a, b}) {
    const std::size_t leave = event_tick();
    push(leave, scenario::EventType::kPathLeave, path);
    push(leave + 2 + rng.index(4), scenario::EventType::kPathJoin, path);
  }
  // grow_links bursts consuming the whole reserve, in one or two events.
  const std::size_t first_burst = 1 + rng.index(spec.reserve_paths);
  std::size_t t1 = event_tick();
  std::size_t t2 = event_tick();
  if (t2 < t1) std::swap(t1, t2);
  push(t1, scenario::EventType::kGrowLinks, first_burst);
  if (first_burst < spec.reserve_paths) {
    push(t2, scenario::EventType::kGrowLinks,
         spec.reserve_paths - first_burst);
  }
  // Event ticks can exceed spec.ticks - 1 by construction margin; clamp.
  for (auto& e : spec.events) e.tick = std::min(e.tick, spec.ticks - 2);
  return spec;
}

MonitorOptions runner_options(std::size_t threads) {
  MonitorOptions options;
  options.accumulator = CovarianceAccumulator::kSharingPairs;
  options.lia.variance.threads = threads;
  // Absorb whole churn bursts as rank-1/bordered factor steps (the
  // machinery under test) instead of tripping the drift cap.
  options.lia.variance.factor_flip_threshold = 1u << 20;
  options.lia.variance.factor_update_cap = 1u << 20;
  return options;
}

struct ScenarioRun {
  std::vector<std::optional<LossInference>> inferences;
  std::size_t refactorizations = 0;
  std::size_t downdate_fallbacks = 0;
};

ScenarioRun drive_scenario(const scenario::ScenarioSpec& spec,
                           const MonitorOptions& options,
                           const std::string& label) {
  scenario::ScenarioRunner runner(spec, options);
  ScenarioRun run;
  while (runner.ticks_run() < spec.ticks) {
    run.inferences.push_back(runner.step());
    if (run.inferences.back()) {
      EXPECT_DOUBLE_EQ(runner.monitor().variances().jitter_used, 0.0)
          << label << " tick " << runner.ticks_run();
    }
  }
  const auto* eqs = runner.monitor().streaming_equations();
  EXPECT_NE(eqs, nullptr) << label;
  if (eqs) {
    run.refactorizations = eqs->refactorizations();
    run.downdate_fallbacks = eqs->downdate_fallbacks();
  }
  return run;
}

void expect_bit_identical(const std::vector<std::optional<LossInference>>& a,
                          const std::vector<std::optional<LossInference>>& b,
                          const std::string& label,
                          std::size_t min_compared = 20) {
  ASSERT_EQ(a.size(), b.size()) << label;
  std::size_t compared = 0;
  for (std::size_t l = 0; l < a.size(); ++l) {
    ASSERT_EQ(a[l].has_value(), b[l].has_value()) << label << " tick " << l;
    if (!a[l]) continue;
    ++compared;
    EXPECT_EQ(linalg::max_abs_diff(a[l]->loss, b[l]->loss), 0.0)
        << label << " tick " << l;
  }
  EXPECT_GT(compared, min_compared) << label;
}

class PairThreadParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PairThreadParity, ThreadCountNeverChangesAnInference) {
  const auto spec = random_spec(GetParam());
  const std::string base = "seed=" + std::to_string(GetParam());

  const ScenarioRun reference =
      drive_scenario(spec, runner_options(/*threads=*/1), base + " threads=1");
  // The instance family keeps the run in the tight regime: one
  // factorization, churn absorbed incrementally.
  ASSERT_EQ(reference.refactorizations, 1u) << base;
  ASSERT_EQ(reference.downdate_fallbacks, 0u) << base;

  // threads=1 again pins run-to-run determinism of the reference itself.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const std::string label = base + " threads=" + std::to_string(threads);
    const ScenarioRun run =
        drive_scenario(spec, runner_options(threads), label);
    expect_bit_identical(reference.inferences, run.inferences, label);
    // The thread count must not cost a refactorization or a downdate
    // fallback.
    EXPECT_EQ(run.refactorizations, 1u) << label;
    EXPECT_EQ(run.downdate_fallbacks, 0u) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairThreadParity,
                         ::testing::Values(3u, 17u, 29u, 101u));

// ---------------------------------------------------------------------------
// Synthetic-feed fuzz: the degradation path (dropped equations drive G
// singular; jitter / rank-revealing / refactorize).  threads=8 must track
// threads=1 bit-identically there too, counters included.
// ---------------------------------------------------------------------------

MonitorOptions direct_options(std::size_t threads) {
  MonitorOptions options = runner_options(threads);
  options.window = 10;
  options.lia.variance.negatives = NegativeCovariancePolicy::kDrop;
  options.lia.variance.rank_revealing_min_attempts = 1;
  return options;
}

struct ChurnEvent {
  std::size_t tick = 0;
  enum class Kind { kToggle, kGrow } kind = Kind::kToggle;
  std::size_t path = 0;                          // kToggle
  std::vector<std::vector<std::uint32_t>> rows;  // kGrow
  std::size_t new_links = 0;                     // kGrow
};

struct FuzzInstance {
  linalg::SparseBinaryMatrix r;
  std::vector<ChurnEvent> script;
  std::size_t ticks = 48;
};

FuzzInstance make_instance(std::uint64_t seed) {
  FuzzInstance instance;
  stats::Rng rng(seed);
  const topology::BranchingTreeConfig config{
      .depth = 3, .branching = 2 + rng.index(2), .extra_leaves = 0};
  const auto tree = topology::make_branching_tree(config, rng);
  const auto paths = topology::tree_paths(tree);
  net::ReducedRoutingMatrix reduced(tree.graph, paths);
  instance.r = reduced.matrix();

  // Junction prefixes, as sorted virtual-link rows: growth rows attach
  // at branching junctions even in this regime.
  std::vector<std::vector<std::uint32_t>> prefixes;
  for (net::NodeId v = 0; v < tree.graph.node_count(); ++v) {
    if (tree.graph.out_degree(v) < 2) continue;  // leaves
    std::vector<std::uint32_t> prefix;
    for (net::NodeId at = v; at != tree.root;) {
      const auto e = tree.parent_edge[at];
      prefix.push_back(static_cast<std::uint32_t>(*reduced.link_of(e)));
      at = tree.graph.edge(e).from;
    }
    std::sort(prefix.begin(), prefix.end());
    prefixes.push_back(std::move(prefix));
  }

  // Random script: toggles on initial paths plus two growth bursts.  The
  // bursts must apply in construction order (the second one's fresh-link
  // indices assume the first already widened the monitor), so their ticks
  // are drawn together and sorted.
  const std::size_t initial_paths = instance.r.rows();
  std::size_t cols = instance.r.cols();
  const std::size_t events = 4 + rng.index(3);
  std::size_t grow_ticks[2] = {4 + rng.index(instance.ticks - 10),
                               4 + rng.index(instance.ticks - 10)};
  if (grow_ticks[1] < grow_ticks[0]) std::swap(grow_ticks[0], grow_ticks[1]);
  for (std::size_t e = 0; e < events; ++e) {
    ChurnEvent event;
    event.tick = e < 2 ? grow_ticks[e] : 4 + rng.index(instance.ticks - 10);
    if (e < 2) {  // the first two events are growth bursts
      event.kind = ChurnEvent::Kind::kGrow;
      const std::size_t batch = 1 + rng.index(3);
      for (std::size_t b = 0; b < batch; ++b) {
        auto row = prefixes[rng.index(prefixes.size())];
        if (rng.bernoulli(0.5)) {
          // Fresh leaf at the junction: link-universe growth.
          row.push_back(static_cast<std::uint32_t>(cols + event.new_links));
          ++event.new_links;
        } else if (row.empty()) {
          // A root prefix without a fresh link would be an empty row.
          row.push_back(0);
        }
        event.rows.push_back(std::move(row));
      }
      cols += event.new_links;
    } else {
      event.kind = ChurnEvent::Kind::kToggle;
      event.path = rng.index(initial_paths);
    }
    instance.script.push_back(event);
  }
  return instance;
}

// Drives one monitor through the instance.  The feed draws snapshots over
// the FINAL link universe and projects through the monitor's current
// routing rows, so every thread count sees one deterministic sequence.
std::vector<std::optional<LossInference>> drive(LiaMonitor& monitor,
                                                const FuzzInstance& instance) {
  std::size_t final_cols = instance.r.cols();
  for (const auto& event : instance.script) final_cols += event.new_links;

  stats::Rng rng(1234);
  std::vector<std::optional<LossInference>> out;
  std::vector<std::uint8_t> active(instance.r.rows(), 1);
  for (std::size_t l = 0; l < instance.ticks; ++l) {
    for (const auto& event : instance.script) {
      if (event.tick != l) continue;
      if (event.kind == ChurnEvent::Kind::kToggle) {
        active[event.path] ^= 1;
        monitor.set_path_active(event.path, active[event.path] != 0);
      } else {
        monitor.add_paths(event.rows, event.new_links);
        active.resize(active.size() + event.rows.size(), 1);
      }
    }
    linalg::Vector x(final_cols);
    for (std::size_t k = 0; k < x.size(); ++k) {
      x[k] = rng.gaussian(-0.05, 0.1 + 0.01 * static_cast<double>(k));
    }
    const auto& r = monitor.routing();
    std::vector<double> y(r.rows(), 0.0);
    for (std::size_t i = 0; i < r.rows(); ++i) {
      if (!active[i]) continue;  // deterministic filler for inactive rows
      double sum = 0.0;
      for (const auto k : r.row(i)) sum += x[k];
      y[i] = sum;
    }
    out.push_back(monitor.observe(y));
  }
  return out;
}

class PairDegradedParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PairDegradedParity, ThreadCountTracksThroughDegradation) {
  const auto instance = make_instance(GetParam());
  LiaMonitor reference_monitor(instance.r, direct_options(/*threads=*/1));
  const auto reference = drive(reference_monitor, instance);
  const auto* reference_eqs = reference_monitor.streaming_equations();
  ASSERT_NE(reference_eqs, nullptr);

  LiaMonitor monitor(instance.r, direct_options(/*threads=*/8));
  const auto out = drive(monitor, instance);
  const std::string label =
      "seed=" + std::to_string(GetParam()) + " threads=8";
  expect_bit_identical(reference, out, label, /*min_compared=*/10);
  // The degradation path itself must be replayed step for step: same
  // refactorization count, same downdate fallbacks.
  const auto* eqs = monitor.streaming_equations();
  ASSERT_NE(eqs, nullptr) << label;
  EXPECT_EQ(eqs->refactorizations(), reference_eqs->refactorizations())
      << label;
  EXPECT_EQ(eqs->downdate_fallbacks(), reference_eqs->downdate_fallbacks())
      << label;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairDegradedParity,
                         ::testing::Values(3u, 101u));

}  // namespace
}  // namespace losstomo::core

// Streaming drop-negative Phase 1: G follows pair sign flips by exact
// integer counts, every solve factorizes it afresh through the batch
// solve's tail (zero-diagonal pins, jitter ladder, rank-revealing
// fallback), and the monitor reproduces the batch drop-negative estimate
// through sign-flip-heavy windows at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "batch_oracle.hpp"
#include "core/monitor.hpp"
#include "core/variance_estimator.hpp"
#include "sim/probe_sim.hpp"
#include "stats/covariance_source.hpp"
#include "test_util.hpp"
#include "topology/generators.hpp"

namespace losstomo::core {
namespace {

// A covariance source whose matrix the test controls entry by entry —
// lets us script exact sign-flip sequences into refresh().
class ScriptedSource final : public stats::CovarianceSource {
 public:
  explicit ScriptedSource(std::size_t dim)
      : s_(dim, dim) {}

  void set(std::size_t i, std::size_t j, double cov) {
    s_(i, j) = cov;
    s_(j, i) = cov;
  }

  [[nodiscard]] std::size_t dim() const override { return s_.rows(); }
  [[nodiscard]] std::size_t count() const override { return 16; }
  [[nodiscard]] double covariance(std::size_t i, std::size_t j) const override {
    return s_(i, j);
  }
  [[nodiscard]] stats::CovarianceView view() const override {
    return {s_, 1.0};
  }

 private:
  linalg::Matrix s_;
};

VarianceOptions drop_options() {
  VarianceOptions options;
  options.negatives = NegativeCovariancePolicy::kDrop;
  return options;
}

// Two paths over one shared link: three sharing pairs, all touching the
// same G entry.  Flipping them between kept and dropped walks the kept
// count through 3 -> 0 -> 3.  When the last equation covering the link
// drops, G's diagonal (the link's kept-pair coverage) reaches 0 and the
// solve pins the link to v = 0 with no jitter, as the batch solve does.
TEST(StreamingDropNegative, UncoveredLinkIsIdentityPinned) {
  const linalg::SparseBinaryMatrix r(1, {{0}, {0}});
  StreamingNormalEquations eqs(r, drop_options());
  ScriptedSource source(2);

  // All three pair covariances positive: pairs (0,0), (0,1), (1,1) kept.
  source.set(0, 0, 0.5);
  source.set(0, 1, 0.25);
  source.set(1, 1, 0.75);
  eqs.refresh(source);
  EXPECT_EQ(eqs.system().used, 3u);
  EXPECT_DOUBLE_EQ(eqs.system().g(0, 0), 3.0);
  EXPECT_EQ(eqs.links_pinned(), 0u);
  (void)eqs.solve();
  EXPECT_EQ(eqs.refactorizations(), 1u);  // one factorization per solve

  // Drop one pair.
  source.set(0, 1, -0.25);
  eqs.refresh(source);
  EXPECT_DOUBLE_EQ(eqs.system().g(0, 0), 2.0);
  const auto after_drop = eqs.solve();
  EXPECT_EQ(eqs.refactorizations(), 2u);
  // v = h / G(0,0) = (0.5 + 0.75) / 2.
  EXPECT_NEAR(after_drop.v[0], 1.25 / 2.0, 1e-9);

  // Drop the remaining pairs one at a time: the kept count walks
  // 2 -> 1 -> 0.  At the 1 -> 0 step the link loses its last equation:
  // G(0,0) lands at exactly 0 and the link's variance solves to exactly
  // 0, with no jitter.
  source.set(1, 1, -0.75);
  eqs.refresh(source);
  EXPECT_DOUBLE_EQ(eqs.system().g(0, 0), 1.0);
  (void)eqs.solve();
  EXPECT_EQ(eqs.refactorizations(), 3u);

  source.set(0, 0, -0.5);
  eqs.refresh(source);
  EXPECT_DOUBLE_EQ(eqs.system().g(0, 0), 0.0);  // 0 kept pairs
  EXPECT_EQ(eqs.pending_flips(), 1u);  // flips since the last solve
  const auto after_pin = eqs.solve();
  EXPECT_EQ(eqs.pending_flips(), 0u);
  EXPECT_EQ(eqs.refactorizations(), 4u);
  EXPECT_EQ(eqs.links_pinned(), 1u);
  EXPECT_EQ(eqs.system().used, 0u);
  EXPECT_EQ(eqs.system().dropped, 3u);
  EXPECT_DOUBLE_EQ(after_pin.v[0], 0.0);
  EXPECT_EQ(after_pin.links_pinned, 1u);
  EXPECT_DOUBLE_EQ(after_pin.jitter_used, 0.0);

  // Bring the pairs back: the estimate returns to the exact value.
  source.set(0, 0, 0.5);
  source.set(0, 1, 0.25);
  source.set(1, 1, 0.75);
  eqs.refresh(source);
  EXPECT_DOUBLE_EQ(eqs.system().g(0, 0), 3.0);
  EXPECT_EQ(eqs.links_pinned(), 0u);
  const auto restored = eqs.solve();
  EXPECT_EQ(eqs.refactorizations(), 5u);
  EXPECT_NEAR(restored.v[0], 1.5 / 3.0, 1e-12);
}

// Equation drops that leave the live block itself rank-deficient (every
// diagonal still covered) must degrade through the pivoted rank-revealing
// fallback when configured to pin on any jitter: the deficient pivot's
// link is pinned to zero variance and the streaming solve matches a fresh
// instance's (the batch solve) exactly — instead of both returning
// jitter-amplified solutions.
TEST(StreamingDropNegative, RankRevealingFallbackPinsDeficientLinks) {
  // Paths {a}, {a,b}, {a,b}: dropping the three {a}-only pairs leaves
  // G = [[3,3],[3,3]] — singular with positive diagonals (links a and b
  // are still covered but have become indistinguishable).
  const linalg::SparseBinaryMatrix r(2, {{0}, {0, 1}, {0, 1}});
  VarianceOptions options = drop_options();
  options.rank_revealing_min_attempts = 1;  // pin on any jitter
  StreamingNormalEquations eqs(r, options);
  ScriptedSource source(3);
  source.set(0, 0, 0.5);
  source.set(0, 1, 0.25);
  source.set(0, 2, 0.25);
  source.set(1, 1, 0.5);
  source.set(1, 2, 0.25);
  source.set(2, 2, 0.5);
  eqs.refresh(source);
  (void)eqs.solve();
  EXPECT_EQ(eqs.refactorizations(), 1u);

  // Drop the {a}-only pairs one tick at a time; after the last one G is
  // singular.
  source.set(0, 0, -0.5);
  eqs.refresh(source);
  (void)eqs.solve();
  source.set(0, 1, -0.25);
  eqs.refresh(source);
  (void)eqs.solve();
  source.set(0, 2, -0.25);
  eqs.refresh(source);
  const auto streaming = eqs.solve();
  EXPECT_EQ(eqs.refactorizations(), 4u);
  EXPECT_EQ(streaming.method,
            "streaming-normal(drop-negative,rank-revealing)");
  EXPECT_EQ(streaming.links_pinned, 1u);
  EXPECT_DOUBLE_EQ(streaming.jitter_used, 0.0);
  // Pivoting keeps link a (first of the tied diagonals) and pins b:
  // 3 v_a = h_a = 0.5 + 0.25 + 0.5 = 1.25.
  EXPECT_NEAR(streaming.v[0], 1.25 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(streaming.v[1], 0.0);

  // A fresh instance on the same covariances degrades identically.
  StreamingNormalEquations fresh(r, options);
  fresh.refresh(source);
  const auto batch = fresh.solve();
  EXPECT_EQ(batch.method, "streaming-normal(drop-negative,rank-revealing)");
  EXPECT_EQ(batch.links_pinned, 1u);
  ASSERT_EQ(batch.v.size(), streaming.v.size());
  for (std::size_t k = 0; k < batch.v.size(); ++k) {
    EXPECT_NEAR(batch.v[k], streaming.v[k], 1e-12) << "link " << k;
  }
}

// Runs a drop-negative monitor and BatchRelearnOracle side by side over
// every snapshot of `y` at 1, 2 and 8 threads: loss within 1e-10 on every
// diagnosed tick, variances within 1e-10 on every tick (or, without
// `all_variances`, on every tick where both kept the same number of
// equations and neither solve took jitter), one factorization per
// relearn.  Returns the number of diagnosed ticks whose drop decisions
// moved (the kept or dropped count differs from the previous tick's) at
// one thread.
std::size_t expect_monitor_matches_oracle(const linalg::SparseBinaryMatrix& r,
                                          const stats::SnapshotMatrix& y,
                                          std::size_t m, bool all_variances) {
  std::size_t moved = 0;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    MonitorOptions options{.window = m};
    options.lia.variance.negatives = NegativeCovariancePolicy::kDrop;
    options.lia.variance.threads = threads;

    losstomo::testing::BatchRelearnOracle batch(r, options);
    LiaMonitor streaming(r, options);
    std::size_t compared = 0;
    std::size_t previous_used = 0, previous_dropped = 0;
    for (std::size_t l = 0; l < y.count(); ++l) {
      const auto from_batch = batch.observe(y.sample(l));
      const auto from_streaming = streaming.observe(y.sample(l));
      EXPECT_EQ(from_batch.has_value(), from_streaming.has_value());
      if (!from_batch || !from_streaming) continue;
      ++compared;
      EXPECT_LE(linalg::max_abs_diff(from_batch->loss, from_streaming->loss),
                1e-10)
          << "tick " << l;
      const auto& est = streaming.variances();
      const auto& oracle = batch.variances();
      if (all_variances ||
          (est.equations_used == oracle.equations_used &&
           est.equations_dropped == oracle.equations_dropped &&
           est.jitter_used == 0.0 && oracle.jitter_used == 0.0)) {
        EXPECT_LE(
            linalg::max_abs_diff(batch.variances().v, streaming.variances().v),
            1e-10)
            << "tick " << l;
      }
      if (threads == 1 && compared > 1 &&
          (est.equations_used != previous_used ||
           est.equations_dropped != previous_dropped)) {
        ++moved;
      }
      previous_used = est.equations_used;
      previous_dropped = est.equations_dropped;
    }
    EXPECT_EQ(compared, y.count() - m);

    const auto& eqs = streaming.streaming_equations();
    EXPECT_TRUE(eqs.drop_negative());
    EXPECT_EQ(eqs.refactorizations(), compared);
    EXPECT_NE(eqs.pair_store(), nullptr);
  }
  return moved;
}

// Sign-flip-heavy monitor parity: observations with near-zero means make
// pair covariances hover around zero, so nearly every tick flips some drop
// decision.  The streaming monitor must stay within 1e-10 of the batch
// relearn oracle on every tick, across >= 3 full window wrap-arounds, at
// 1, 2 and 8 threads.  The second input is simulated trees whose
// near-zero-variance links make G singular on many windows: a cached or
// stale factor drifted from the batch solve there by up to 0.2 in loss,
// while a fresh factorization of the same integer G gives the same loss.
// Their variances are compared only where the two systems are the same
// and unjittered.  Lossless paths have a sample covariance of exactly 0
// in the oracle's two-pass sums but of rounding size, either sign, in
// the monitor's accumulator, so a few pair equations resolve the drop
// decision differently (the cov = 0 boundary of core/monitor.hpp); and
// where G is singular, G + jitter * I amplifies rounding in h.  Either
// moves v by up to ~3e-7 on near-singular windows, never the loss here
// (ROADMAP item 3).
TEST(StreamingDropNegative, SignFlipHeavyWindowsMatchBatchAtAnyThreadCount) {
  {
    SCOPED_TRACE("gaussian tree");
    stats::Rng topo_rng(514);
    const auto tree = topology::make_random_tree(
        {.nodes = 90, .max_branching = 4}, topo_rng);
    const net::ReducedRoutingMatrix rrm(tree.graph,
                                        topology::tree_paths(tree));
    const std::size_t nc = rrm.link_count();
    const std::size_t m = 40;
    const std::size_t ticks = m + 3 * m;  // >= 3 wrap-arounds after warm-up

    // Every link active: weakly shared pairs have true covariances at the
    // scale of the window's sampling noise, so drop decisions flip as the
    // window slides, while strongly shared pairs stay decisively kept.
    stats::Rng rng(515);
    linalg::Vector v_true(nc);
    for (auto& v : v_true) v = rng.uniform(0.01, 0.05);
    const linalg::Vector mu(nc, -0.02);
    const auto y = losstomo::testing::synthetic_observations(
        rrm.matrix(), mu, v_true, ticks, rng);
    EXPECT_GT(expect_monitor_matches_oracle(rrm.matrix(), y, m, true),
              ticks / 4);
  }
  for (std::uint64_t s = 1; s <= 12; ++s) {
    SCOPED_TRACE("simulated tree s=" + std::to_string(s));
    stats::Rng tree_rng(1000 + s);
    const auto tree = topology::make_random_tree(
        {.nodes = 160, .max_branching = 8}, tree_rng);
    const net::ReducedRoutingMatrix rrm(tree.graph,
                                        topology::tree_paths(tree));
    sim::ScenarioConfig config;
    config.p = 0.05;
    sim::SnapshotSimulator simulator(tree.graph, rrm, config, 7 * s + 3);
    const std::size_t m = 20;
    stats::SnapshotMatrix y(rrm.path_count(), 60);
    for (std::size_t l = 0; l < y.count(); ++l) {
      const auto& snapshot = simulator.next().path_log_trans;
      std::copy(snapshot.begin(), snapshot.end(), y.sample(l).begin());
    }
    (void)expect_monitor_matches_oracle(rrm.matrix(), y, m, false);
  }
}

// The pair store is built lazily: constructing the streaming system must
// not enumerate pairs; the first refresh must.
TEST(StreamingDropNegative, PairStoreIsBuiltLazily) {
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  StreamingNormalEquations eqs(rrm.matrix(), drop_options());
  EXPECT_EQ(eqs.pair_store(), nullptr);
  ScriptedSource source(rrm.path_count());
  for (std::size_t i = 0; i < rrm.path_count(); ++i) source.set(i, i, 0.1);
  eqs.refresh(source);
  ASSERT_NE(eqs.pair_store(), nullptr);
  EXPECT_GT(eqs.pair_store()->pair_count(), 0u);
}

}  // namespace
}  // namespace losstomo::core

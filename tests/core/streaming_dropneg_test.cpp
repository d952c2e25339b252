// Streaming drop-negative factor maintenance (satellite of the rank-1
// up/down-dating tentpole): the cached Cholesky factor must follow pair
// sign flips by rank-1 steps, fall back to a full refactorization when a
// downdate would lose positive definiteness, and reproduce the batch
// drop-negative estimate through sign-flip-heavy windows at any thread
// count.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "batch_oracle.hpp"
#include "core/monitor.hpp"
#include "core/variance_estimator.hpp"
#include "stats/covariance_source.hpp"
#include "test_util.hpp"

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
  [[nodiscard]] const linalg::Matrix& matrix() const override { return s_; }
  [[nodiscard]] bool matrix_is_cheap() const override { return true; }

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
// count through 3 -> 0 -> 3, which exercises update, downdate, and — when
// the last equation covering the link drops — the identity pin that keeps
// G nonsingular where the pre-pinning engine had to refactorize with
// jitter.
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
  (void)eqs.solve();  // first factorization
  EXPECT_EQ(eqs.refactorizations(), 1u);

  // Drop one pair: a clean rank-1 downdate, no refactorization.
  source.set(0, 1, -0.25);
  eqs.refresh(source);
  EXPECT_DOUBLE_EQ(eqs.system().g(0, 0), 2.0);
  const auto after_downdate = eqs.solve();
  EXPECT_EQ(eqs.refactorizations(), 1u);
  EXPECT_GE(eqs.rank1_updates(), 1u);
  EXPECT_EQ(eqs.downdate_fallbacks(), 0u);
  // v = h / G(0,0) = (0.5 + 0.75) / 2.
  EXPECT_NEAR(after_downdate.v[0], 1.25 / 2.0, 1e-9);

  // Drop the remaining pairs one at a time: the kept count walks
  // 2 -> 1 -> 0.  The 2 -> 1 step is a clean downdate; at the 1 -> 0 step
  // the link loses its last equation and is identity-pinned — G(0,0)
  // lands at exactly 1 (unit border), the factor follows by rank-1 steps
  // (pin update before pair downdate, so nothing loses definiteness), and
  // the link's variance solves to exactly 0.  No refactorization, no
  // jitter, no downdate failure.
  source.set(1, 1, -0.75);
  eqs.refresh(source);
  EXPECT_DOUBLE_EQ(eqs.system().g(0, 0), 1.0);
  EXPECT_EQ(eqs.downdate_fallbacks(), 0u);
  (void)eqs.solve();
  EXPECT_EQ(eqs.refactorizations(), 1u);

  source.set(0, 0, -0.5);
  eqs.refresh(source);
  EXPECT_DOUBLE_EQ(eqs.system().g(0, 0), 1.0);  // 0 kept + identity pin
  EXPECT_EQ(eqs.pending_flips(), 1u);  // factor reconciles at solve time
  const auto after_pin = eqs.solve();
  EXPECT_EQ(eqs.downdate_fallbacks(), 0u);
  EXPECT_EQ(eqs.refactorizations(), 1u);
  EXPECT_EQ(eqs.links_pinned(), 1u);
  EXPECT_EQ(eqs.system().used, 0u);
  EXPECT_EQ(eqs.system().dropped, 3u);
  EXPECT_DOUBLE_EQ(after_pin.v[0], 0.0);
  EXPECT_EQ(after_pin.links_pinned, 1u);
  EXPECT_DOUBLE_EQ(after_pin.jitter_used, 0.0);

  // Bring the pairs back: the pin cancels against the unpin before the
  // factor ever sees it, the three kept flips ride the stale-factor
  // refinement path, and the estimate returns to the exact value — still
  // on the original factorization.
  source.set(0, 0, 0.5);
  source.set(0, 1, 0.25);
  source.set(1, 1, 0.75);
  eqs.refresh(source);
  EXPECT_DOUBLE_EQ(eqs.system().g(0, 0), 3.0);
  EXPECT_EQ(eqs.links_pinned(), 0u);
  const auto restored = eqs.solve();
  EXPECT_EQ(eqs.refactorizations(), 1u);
  EXPECT_NEAR(restored.v[0], 1.5 / 3.0, 1e-12);
}

// Equation drops that leave the live block itself rank-deficient (every
// diagonal still covered) must degrade through the pivoted rank-revealing
// fallback when configured to pin on any jitter: the deficient pivot's
// link is pinned to zero variance and the streaming solve matches the
// batch path exactly — instead of both returning jitter-amplified
// solutions.
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

  // Drop the {a}-only pairs one tick at a time; the last downdate loses
  // positive definiteness and falls back.
  source.set(0, 0, -0.5);
  eqs.refresh(source);
  (void)eqs.solve();
  source.set(0, 1, -0.25);
  eqs.refresh(source);
  (void)eqs.solve();
  EXPECT_EQ(eqs.downdate_fallbacks(), 0u);
  source.set(0, 2, -0.25);
  eqs.refresh(source);
  const auto streaming = eqs.solve();
  EXPECT_EQ(eqs.downdate_fallbacks(), 1u);
  EXPECT_EQ(streaming.method,
            "streaming-normal(drop-negative,rank-revealing)");
  EXPECT_EQ(streaming.links_pinned, 1u);
  EXPECT_DOUBLE_EQ(streaming.jitter_used, 0.0);
  // Pivoting keeps link a (first of the tied diagonals) and pins b:
  // 3 v_a = h_a = 0.5 + 0.25 + 0.5 = 1.25.
  EXPECT_NEAR(streaming.v[0], 1.25 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(streaming.v[1], 0.0);

  // The batch solve on the same covariances degrades identically.
  const auto batch = estimate_link_variances(r, source, options);
  EXPECT_EQ(batch.method, "normal(drop-negative,rank-revealing)");
  EXPECT_EQ(batch.links_pinned, 1u);
  ASSERT_EQ(batch.v.size(), streaming.v.size());
  for (std::size_t k = 0; k < batch.v.size(); ++k) {
    EXPECT_NEAR(batch.v[k], streaming.v[k], 1e-12) << "link " << k;
  }
}

// The PCG refinement knobs are live: disabling the budget
// (refine_max_iterations = 0) forces a refactorization on every tick whose
// factor is inexact, reproducing the pre-refinement engine.
TEST(StreamingDropNegative, RefinementBudgetKnobForcesRefactorization) {
  const linalg::SparseBinaryMatrix r(1, {{0}, {0}});
  VarianceOptions options = drop_options();
  options.refine_max_iterations = 0;
  StreamingNormalEquations eqs(r, options);
  ScriptedSource source(2);
  source.set(0, 0, 0.5);
  source.set(0, 1, 0.25);
  source.set(1, 1, 0.75);
  eqs.refresh(source);
  (void)eqs.solve();
  ASSERT_EQ(eqs.refactorizations(), 1u);

  // A clean rank-1 downdate leaves the factor inexact (drift-wise); with
  // refinement disabled the solve must rebuild it.
  source.set(0, 1, -0.25);
  eqs.refresh(source);
  const auto est = eqs.solve();
  EXPECT_EQ(eqs.rank1_updates(), 1u);
  EXPECT_EQ(eqs.refactorizations(), 2u);
  EXPECT_NEAR(est.v[0], 1.25 / 2.0, 1e-12);
}

// The cumulative-update drift bound: with factor_update_cap = 1 every tick
// that flips pairs beyond the first rank-1 step must refactorize.
TEST(StreamingDropNegative, FactorUpdateCapForcesRefactorization) {
  const linalg::SparseBinaryMatrix r(1, {{0}, {0}});
  VarianceOptions options = drop_options();
  options.factor_update_cap = 1;
  StreamingNormalEquations eqs(r, options);
  ScriptedSource source(2);
  source.set(0, 0, 0.5);
  source.set(0, 1, 0.25);
  source.set(1, 1, 0.75);
  eqs.refresh(source);
  (void)eqs.solve();
  ASSERT_EQ(eqs.refactorizations(), 1u);

  // One flip fits the cap...
  source.set(0, 1, -0.25);
  eqs.refresh(source);
  (void)eqs.solve();
  EXPECT_EQ(eqs.refactorizations(), 1u);
  EXPECT_EQ(eqs.rank1_updates(), 1u);
  // ...the next flip exceeds it and refactorizes instead.
  source.set(0, 1, 0.25);
  eqs.refresh(source);
  (void)eqs.solve();
  EXPECT_EQ(eqs.refactorizations(), 2u);
  EXPECT_EQ(eqs.rank1_updates(), 1u);
}

// Sign-flip-heavy monitor parity: observations with near-zero means make
// pair covariances hover around zero, so nearly every tick flips some drop
// decision.  The streaming monitor must stay within 1e-10 of the batch
// relearn oracle across >= 3 full window wrap-arounds at 1, 2, and 8
// threads,
// while actually exercising the rank-1 factor path (flips happen, yet
// refactorizations stay rare).
TEST(StreamingDropNegative, SignFlipHeavyWindowsMatchBatchAtAnyThreadCount) {
  // A tree large enough (nc ~ 100) that the per-tick flip threshold
  // (nc / 4) leaves room for the rank-1 path to engage.
  stats::Rng topo_rng(514);
  const auto tree =
      topology::make_random_tree({.nodes = 90, .max_branching = 4}, topo_rng);
  const net::ReducedRoutingMatrix rrm(tree.graph, topology::tree_paths(tree));
  const std::size_t nc = rrm.link_count();
  const std::size_t m = 40;
  const std::size_t ticks = m + 3 * m;  // >= 3 wrap-arounds after warm-up

  // Every link active: weakly shared pairs have true covariances at the
  // scale of the window's sampling noise, so dozens of drop decisions flip
  // as the window slides (~5 per tick in this configuration), while
  // strongly shared pairs stay decisively kept — the regime the rank-1
  // factor path is built for.  (Near-zero-variance links would make the
  // drop-negative G numerically singular on some windows, where G^-1
  // amplifies mere summation-order noise past any parity tolerance for
  // every implementation — including refactor-every-tick; conditioning,
  // not factor drift, is the binding constraint there.)
  stats::Rng rng(515);
  linalg::Vector v_true(nc);
  for (auto& v : v_true) v = rng.uniform(0.01, 0.05);
  const linalg::Vector mu(nc, -0.02);
  const auto y = losstomo::testing::synthetic_observations(rrm.matrix(), mu,
                                                           v_true, ticks, rng);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    MonitorOptions options{.window = m};
    options.lia.variance.negatives = NegativeCovariancePolicy::kDrop;
    options.lia.variance.threads = threads;

    losstomo::testing::BatchRelearnOracle batch(rrm.matrix(), options);
    LiaMonitor streaming(rrm.matrix(), options);
    std::size_t compared = 0;
    for (std::size_t l = 0; l < ticks; ++l) {
      const auto from_batch = batch.observe(y.sample(l));
      const auto from_streaming = streaming.observe(y.sample(l));
      ASSERT_EQ(from_batch.has_value(), from_streaming.has_value());
      if (!from_batch) continue;
      ++compared;
      EXPECT_LE(linalg::max_abs_diff(from_batch->loss, from_streaming->loss),
                1e-10)
          << "threads=" << threads << " tick " << l;
      EXPECT_LE(
          linalg::max_abs_diff(batch.variances().v, streaming.variances().v),
          1e-10)
          << "threads=" << threads << " tick " << l;
    }
    EXPECT_EQ(compared, ticks - m);

    const auto& eqs = streaming.streaming_equations();
    ASSERT_TRUE(eqs.drop_negative());
    // The scenario is flip-heavy: rank-1 steps must have run, and the
    // factor cache must have absorbed most of them (far fewer full
    // refactorizations than relearn ticks).
    EXPECT_GT(eqs.rank1_updates(), 0u) << "threads=" << threads;
    EXPECT_LT(eqs.refactorizations(), compared / 2) << "threads=" << threads;
    ASSERT_NE(eqs.pair_store(), nullptr);
    EXPECT_GT(eqs.pair_store()->pair_count(), 0u);
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
  EXPECT_GT(eqs.pair_store()->bytes(), 0u);
}

}  // namespace
}  // namespace losstomo::core

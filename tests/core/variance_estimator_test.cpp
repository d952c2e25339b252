#include "core/variance_estimator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/augmented_matrix.hpp"
#include "test_util.hpp"

namespace losstomo::core {
namespace {

using losstomo::testing::make_fig1_network;
using losstomo::testing::make_two_beacon_network;
using losstomo::testing::random_variances;
using losstomo::testing::synthetic_observations;

struct Problem {
  net::Graph graph;
  std::unique_ptr<net::ReducedRoutingMatrix> rrm;
  linalg::Vector v_true;
  stats::SnapshotMatrix y{1, 1};
};

Problem make_problem(std::size_t m, std::uint64_t seed,
                     double congested_fraction = 0.3) {
  auto net = make_two_beacon_network();
  Problem p;
  p.graph = std::move(net.graph);
  p.rrm = std::make_unique<net::ReducedRoutingMatrix>(p.graph, net.paths);
  stats::Rng rng(seed);
  p.v_true = random_variances(p.rrm->link_count(), rng, congested_fraction);
  const linalg::Vector mu(p.rrm->link_count(), -0.02);
  p.y = synthetic_observations(p.rrm->matrix(), mu, p.v_true, m, rng);
  return p;
}

TEST(VarianceEstimator, RecoversVariancesWithManySnapshots) {
  const auto p = make_problem(20000, 61);
  const auto est = estimate_link_variances(p.rrm->matrix(), p.y);
  ASSERT_EQ(est.v.size(), p.v_true.size());
  for (std::size_t k = 0; k < est.v.size(); ++k) {
    EXPECT_NEAR(est.v[k], p.v_true[k], 0.05 * std::max(p.v_true[k], 0.01))
        << "link " << k;
  }
}

TEST(VarianceEstimator, AllBackendsAgreeOnCleanData) {
  const auto p = make_problem(500, 62);
  VarianceOptions dense_opts;
  dense_opts.method = VarianceMethod::kDenseQr;
  dense_opts.negatives = NegativeCovariancePolicy::kKeep;
  VarianceOptions normal_opts;
  normal_opts.method = VarianceMethod::kNormal;
  normal_opts.negatives = NegativeCovariancePolicy::kKeep;
  const auto dense = estimate_link_variances(p.rrm->matrix(), p.y, dense_opts);
  const auto normal = estimate_link_variances(p.rrm->matrix(), p.y, normal_opts);
  for (std::size_t k = 0; k < dense.v.size(); ++k) {
    EXPECT_NEAR(dense.v[k], normal.v[k], 1e-8) << "link " << k;
  }
}

TEST(VarianceEstimator, PairwiseDropEqualsDenseQrDrop) {
  // With the same drop-negative policy, the pairwise normal equations and
  // the dense QR must give identical solutions (same LS problem).
  const auto p = make_problem(60, 63);
  VarianceOptions dense_opts;
  dense_opts.method = VarianceMethod::kDenseQr;
  dense_opts.negatives = NegativeCovariancePolicy::kDrop;
  VarianceOptions normal_opts;
  normal_opts.method = VarianceMethod::kNormal;
  normal_opts.negatives = NegativeCovariancePolicy::kDrop;
  const auto dense = estimate_link_variances(p.rrm->matrix(), p.y, dense_opts);
  const auto normal = estimate_link_variances(p.rrm->matrix(), p.y, normal_opts);
  EXPECT_EQ(dense.equations_dropped, normal.equations_dropped);
  for (std::size_t k = 0; k < dense.v.size(); ++k) {
    EXPECT_NEAR(dense.v[k], normal.v[k], 1e-7) << "link " << k;
  }
}

TEST(VarianceEstimator, NnlsProducesNonNegative) {
  const auto p = make_problem(30, 64);
  VarianceOptions opts;
  opts.method = VarianceMethod::kNnls;
  const auto est = estimate_link_variances(p.rrm->matrix(), p.y, opts);
  for (const auto v : est.v) EXPECT_GE(v, 0.0);
  EXPECT_EQ(est.negative_clamped, 0u);  // NNLS never needs clamping
}

TEST(VarianceEstimator, OutputAlwaysNonNegative) {
  for (const std::uint64_t seed : {65u, 66u, 67u}) {
    const auto p = make_problem(12, seed);  // few snapshots: noisy
    const auto est = estimate_link_variances(p.rrm->matrix(), p.y);
    for (const auto v : est.v) EXPECT_GE(v, 0.0);
  }
}

TEST(VarianceEstimator, DropsNegativeCovarianceEquations) {
  const auto p = make_problem(8, 68);  // small m: negatives very likely
  VarianceOptions opts;
  opts.negatives = NegativeCovariancePolicy::kDrop;
  const auto est = estimate_link_variances(p.rrm->matrix(), p.y, opts);
  // Pairs with an empty shared-link set carry no equation; the rest are
  // either used or dropped (negative covariance).
  std::size_t informative = 0;
  const auto& r = p.rrm->matrix();
  for (std::size_t i = 0; i < r.rows(); ++i) {
    for (std::size_t j = i; j < r.rows(); ++j) {
      bool shared = false;
      for (const auto k : r.row(i)) shared |= r.contains(j, k);
      informative += shared ? 1 : 0;
    }
  }
  EXPECT_EQ(est.equations_used + est.equations_dropped, informative);
  EXPECT_LE(informative, pair_count(p.rrm->path_count()));
}

TEST(VarianceEstimator, DropCountOnHandCraftedNegativePair) {
  // Two paths sharing one link, observations engineered so their sample
  // covariance is negative: exactly one equation must be dropped.
  const linalg::SparseBinaryMatrix r(3, {{0, 1}, {0, 2}});
  const auto y = stats::SnapshotMatrix::from_rows(
      {{1.0, -1.0}, {-1.0, 1.0}, {2.0, -2.0}, {-2.0, 2.0}});
  VarianceOptions opts;
  opts.negatives = NegativeCovariancePolicy::kDrop;
  const auto est = estimate_link_variances(r, y, opts);
  EXPECT_EQ(est.equations_dropped, 1u);  // the (0,1) pair
  EXPECT_EQ(est.equations_used, 2u);     // the two diagonal equations
}

TEST(VarianceEstimator, KeepPolicyUsesEverything) {
  const auto p = make_problem(8, 69);
  VarianceOptions opts;
  opts.negatives = NegativeCovariancePolicy::kKeep;
  const auto est = estimate_link_variances(p.rrm->matrix(), p.y, opts);
  EXPECT_EQ(est.equations_used, pair_count(p.rrm->path_count()));
  EXPECT_EQ(est.equations_dropped, 0u);
}

TEST(VarianceEstimator, ErrorShrinksWithSnapshots) {
  double err_small = 0.0, err_large = 0.0;
  const auto p_small = make_problem(20, 70);
  const auto est_small =
      estimate_link_variances(p_small.rrm->matrix(), p_small.y);
  const auto p_large = make_problem(5000, 70);
  const auto est_large =
      estimate_link_variances(p_large.rrm->matrix(), p_large.y);
  for (std::size_t k = 0; k < est_small.v.size(); ++k) {
    err_small += std::fabs(est_small.v[k] - p_small.v_true[k]);
    err_large += std::fabs(est_large.v[k] - p_large.v_true[k]);
  }
  EXPECT_LT(err_large, err_small);
}

TEST(VarianceEstimator, RejectsDimensionMismatch) {
  const auto p = make_problem(10, 71);
  stats::SnapshotMatrix wrong(p.rrm->path_count() + 1, 10);
  EXPECT_THROW(estimate_link_variances(p.rrm->matrix(), wrong),
               std::invalid_argument);
}

TEST(VarianceEstimator, RejectsSingleSnapshot) {
  const auto p = make_problem(10, 72);
  stats::SnapshotMatrix single(p.rrm->path_count(), 1);
  EXPECT_THROW(estimate_link_variances(p.rrm->matrix(), single),
               std::invalid_argument);
}

TEST(VarianceEstimator, Fig1TreeRecovery) {
  // Single-beacon tree of the paper's Figure 1.
  auto net = make_fig1_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  stats::Rng rng(73);
  const linalg::Vector v_true{0.04, 1e-7, 0.02, 1e-7, 0.01};
  const linalg::Vector mu(5, -0.05);
  const auto y = synthetic_observations(rrm.matrix(), mu, v_true, 8000, rng);
  const auto est = estimate_link_variances(rrm.matrix(), y);
  for (std::size_t k = 0; k < 5; ++k) {
    // Sampling error scales with the largest variances in the system
    // (~v_max/sqrt(m)), not with the tiny per-link truth.
    EXPECT_NEAR(est.v[k], v_true[k], 0.15 * std::max(v_true[k], 0.01));
  }
  // The quiet links are unambiguously quieter than every congested link.
  EXPECT_LT(std::max(est.v[1], est.v[3]),
            0.3 * std::min({est.v[0], est.v[2], est.v[4]}));
}

// Property sweep: recovery holds across seeds and congestion densities.
class VarianceRecovery
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(VarianceRecovery, ConsistentEstimation) {
  const auto [seed, fraction] = GetParam();
  const auto p = make_problem(4000, static_cast<std::uint64_t>(seed), fraction);
  const auto est = estimate_link_variances(p.rrm->matrix(), p.y);
  for (std::size_t k = 0; k < est.v.size(); ++k) {
    EXPECT_NEAR(est.v[k], p.v_true[k], 0.25 * std::max(p.v_true[k], 0.01));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VarianceRecovery,
    ::testing::Combine(::testing::Values(80, 81, 82, 83),
                       ::testing::Values(0.1, 0.3, 0.6)));

TEST(StreamingNormalEquationsTest, MatchesBatchEstimateBothPolicies) {
  const auto p = make_problem(60, 91);
  const auto& r = p.rrm->matrix();
  const stats::BatchCovarianceSource source(p.y);
  for (const auto policy : {NegativeCovariancePolicy::kDrop,
                            NegativeCovariancePolicy::kKeep}) {
    VarianceOptions options;
    options.negatives = policy;
    const auto batch = estimate_link_variances(r, p.y, options);
    StreamingNormalEquations streaming(r, options);
    streaming.refresh(source);
    const auto est = streaming.solve();
    EXPECT_EQ(est.equations_used, batch.equations_used);
    EXPECT_EQ(est.equations_dropped, batch.equations_dropped);
    EXPECT_LE(linalg::max_abs_diff(est.v, batch.v), 1e-10);
  }
}

TEST(StreamingNormalEquationsTest, ReusesFactorWhileGramUnchanged) {
  const auto p = make_problem(60, 92);
  const auto& r = p.rrm->matrix();
  VarianceOptions options;
  options.negatives = NegativeCovariancePolicy::kKeep;
  StreamingNormalEquations streaming(r, options);
  // Three different windows of the same campaign: under keep-all G never
  // changes, so only one factorization may happen.
  for (const std::uint64_t seed : {921u, 922u, 923u}) {
    const auto q = make_problem(40, seed);
    const stats::BatchCovarianceSource source(q.y);
    streaming.refresh(source);
    const auto est = streaming.solve();
    const auto batch = estimate_link_variances(r, q.y, options);
    EXPECT_LE(linalg::max_abs_diff(est.v, batch.v), 1e-10);
  }
  EXPECT_EQ(streaming.refactorizations(), 1u);
}

TEST(StreamingNormalEquationsTest, RejectsDenseQrAndSolveBeforeRefresh) {
  const auto p = make_problem(10, 93);
  const auto& r = p.rrm->matrix();
  StreamingNormalEquations unrefreshed(r);
  EXPECT_THROW(unrefreshed.solve(), std::logic_error);
  VarianceOptions dense;
  dense.method = VarianceMethod::kDenseQr;
  // Rejected at construction, before any O(nc^2) assembly.
  EXPECT_THROW(StreamingNormalEquations(r, dense), std::invalid_argument);
}

}  // namespace
}  // namespace losstomo::core

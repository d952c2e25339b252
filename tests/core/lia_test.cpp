#include "core/lia.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/metrics.hpp"
#include "test_util.hpp"

namespace losstomo::core {
namespace {

using losstomo::testing::make_fig1_network;
using losstomo::testing::synthetic_observations;

TEST(Lia, InferBeforeLearnThrows) {
  const linalg::SparseBinaryMatrix r(2, {{0}, {1}});
  const Lia lia(r);
  const linalg::Vector y{0.0, 0.0};
  EXPECT_FALSE(lia.trained());
  EXPECT_THROW(lia.infer(y), std::logic_error);
}

TEST(Lia, ExactRecoveryOnNoiselessSnapshot) {
  // Fig-1 network, exact log-linear observations: the two quiet links get
  // loss 0 and the three congested links are recovered exactly.
  const auto net = make_fig1_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  Lia lia(rrm.matrix());
  lia.learn_from_variances({0.05, 1e-12, 0.02, 1e-12, 0.01});

  // True rates: links 0,2,4 lossy; links 1,3 perfect.
  const linalg::Vector phi_true{0.9, 1.0, 0.85, 1.0, 0.95};
  linalg::Vector x(5);
  for (std::size_t k = 0; k < 5; ++k) x[k] = std::log(phi_true[k]);
  const auto y = rrm.matrix().multiply(x);

  const auto result = lia.infer(y);
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_NEAR(result.phi[k], phi_true[k], 1e-9) << "link " << k;
  }
  EXPECT_LT(result.residual_norm, 1e-9);
  EXPECT_TRUE(result.removed[1]);
  EXPECT_TRUE(result.removed[3]);
  EXPECT_FALSE(result.removed[0]);
}

TEST(Lia, RemovedCongestedLinkCorruptsOnlyItsEquations) {
  // If a congested link is (wrongly) eliminated, inference degrades — the
  // scenario the paper's Fig. 7 shows does not arise in practice.  Force
  // it by lying about variances.
  const auto net = make_fig1_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  Lia lia(rrm.matrix());
  // Pretend link 0 (shared head, truly lossy) is quiet.
  lia.learn_from_variances({1e-12, 0.05, 0.02, 0.01, 0.009});
  const linalg::Vector phi_true{0.8, 1.0, 1.0, 1.0, 1.0};
  linalg::Vector x(5);
  for (std::size_t k = 0; k < 5; ++k) x[k] = std::log(phi_true[k]);
  const auto y = rrm.matrix().multiply(x);
  const auto result = lia.infer(y);
  // Link 0's loss is misattributed: inference no longer matches truth.
  EXPECT_TRUE(result.removed[0]);
  double max_err = 0.0;
  for (std::size_t k = 0; k < 5; ++k) {
    max_err = std::max(max_err, std::fabs(result.phi[k] - phi_true[k]));
  }
  EXPECT_GT(max_err, 0.05);
}

TEST(Lia, LearnsFromSyntheticHistoryAndLocatesCongestion) {
  const auto mesh_net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(mesh_net.graph, mesh_net.paths);
  stats::Rng rng(101);
  // Links 0 and 3 congested: high variance, lossy mean.
  const std::size_t nc = rrm.link_count();
  linalg::Vector v_true(nc, 1e-10);
  linalg::Vector mu(nc, -1e-4);
  v_true[0] = 0.04;
  mu[0] = -0.1;
  v_true[3] = 0.02;
  mu[3] = -0.15;
  const auto history =
      synthetic_observations(rrm.matrix(), mu, v_true, 300, rng);

  Lia lia(rrm.matrix());
  lia.learn(history);
  // Current snapshot drawn from the same model.  The realized loss of a
  // high-variance link fluctuates, so truth is the *realized* state
  // (1 - exp(x_k) > tl), not the static labels.
  linalg::Vector x(nc);
  std::vector<bool> truly_congested(nc, false);
  for (std::size_t k = 0; k < nc; ++k) {
    x[k] = std::min(rng.gaussian(mu[k], std::sqrt(v_true[k])), 0.0);
    truly_congested[k] = 1.0 - std::exp(x[k]) > 0.002;
  }
  const auto y = rrm.matrix().multiply(x);
  const auto result = lia.infer(y);

  const auto acc = locate_congested(result.loss, truly_congested, 0.002);
  EXPECT_DOUBLE_EQ(acc.dr, 1.0);
  EXPECT_EQ(acc.false_alarms, 0u);
}

TEST(Lia, KeepAllLearnAssemblesGFromItsOwnGram) {
  // Lia::learn hands its N = R^T R to the keep-all Phase 1; the variances
  // equal, bit for bit, those of a solve that rebuilds N.
  const auto mesh_net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(mesh_net.graph, mesh_net.paths);
  stats::Rng rng(102);
  const std::size_t nc = rrm.link_count();
  linalg::Vector v_true(nc, 1e-6);
  v_true[1] = 0.03;
  const auto history = synthetic_observations(
      rrm.matrix(), linalg::Vector(nc, -0.01), v_true, 60, rng);
  LiaOptions options;
  options.variance.negatives = NegativeCovariancePolicy::kKeep;
  Lia lia(rrm.matrix(), options);
  EXPECT_EQ(lia.learn(history).v,
            estimate_link_variances(rrm.matrix(), history, options.variance).v);
}

TEST(Lia, VariancesAccessorGuarded) {
  const linalg::SparseBinaryMatrix r(2, {{0}, {1}});
  const Lia lia(r);
  EXPECT_THROW((void)lia.variances(), std::logic_error);
  EXPECT_THROW((void)lia.elimination(), std::logic_error);
}

TEST(Lia, RelearnUpdatesElimination) {
  const auto net = make_fig1_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  Lia lia(rrm.matrix());
  lia.learn_from_variances({0.05, 1e-12, 0.02, 1e-12, 0.01});
  const auto removed_first = lia.elimination().removed;
  // Swap the congested set; the elimination must follow.
  lia.learn_from_variances({1e-12, 0.05, 1e-12, 0.02, 0.01});
  const auto removed_second = lia.elimination().removed;
  EXPECT_NE(removed_first, removed_second);
}

TEST(Lia, PhiClampedToUnitInterval) {
  const auto net = make_fig1_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  Lia lia(rrm.matrix());
  lia.learn_from_variances({0.05, 1e-12, 0.02, 1e-12, 0.01});
  // Positive y (phi > 1) is physically impossible but can appear through
  // noise; inference must clamp.
  const linalg::Vector y{0.05, 0.02, 0.01};
  const auto result = lia.infer(y);
  for (const auto phi : result.phi) {
    EXPECT_GE(phi, 0.0);
    EXPECT_LE(phi, 1.0);
  }
}

// Regression (satellite): Lia owns its routing matrix, so constructing from
// a temporary (here: the matrix of a ReducedRoutingMatrix that dies at the
// end of the full expression) must be safe.  The old const-reference member
// dangled in exactly this pattern.
TEST(Lia, OwnsRoutingMatrixFromTemporary) {
  const auto net = make_fig1_network();
  Lia lia(net::ReducedRoutingMatrix(net.graph, net.paths).matrix());
  lia.learn_from_variances({0.05, 1e-12, 0.02, 1e-12, 0.01});

  const linalg::Vector phi_true{0.9, 1.0, 0.85, 1.0, 0.95};
  linalg::Vector x(5);
  for (std::size_t k = 0; k < 5; ++k) x[k] = std::log(phi_true[k]);
  const auto y = lia.routing().multiply(x);
  const auto result = lia.infer(y);
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_NEAR(result.phi[k], phi_true[k], 1e-9) << "link " << k;
  }
}

}  // namespace
}  // namespace losstomo::core

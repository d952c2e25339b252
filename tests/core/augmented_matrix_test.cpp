#include "core/augmented_matrix.hpp"

#include <gtest/gtest.h>

#include "linalg/qr.hpp"
#include "reference_estimator.hpp"
#include "test_util.hpp"

namespace losstomo::core {
namespace {

using losstomo::testing::make_fig1_network;

TEST(PairIndexing, CountsAndBounds) {
  EXPECT_EQ(pair_count(1), 1u);
  EXPECT_EQ(pair_count(3), 6u);
  EXPECT_EQ(pair_count(10), 55u);
}

TEST(PairIndexing, PacksUpperTriangleRowMajor) {
  // np = 3: (0,0)=0 (0,1)=1 (0,2)=2 (1,1)=3 (1,2)=4 (2,2)=5.
  EXPECT_EQ(pair_index(0, 0, 3), 0u);
  EXPECT_EQ(pair_index(0, 1, 3), 1u);
  EXPECT_EQ(pair_index(0, 2, 3), 2u);
  EXPECT_EQ(pair_index(1, 1, 3), 3u);
  EXPECT_EQ(pair_index(1, 2, 3), 4u);
  EXPECT_EQ(pair_index(2, 2, 3), 5u);
}

TEST(PairIndexing, BijectiveOverAllPairs) {
  const std::size_t np = 17;
  std::vector<bool> seen(pair_count(np), false);
  for (std::size_t i = 0; i < np; ++i) {
    for (std::size_t j = i; j < np; ++j) {
      const auto idx = pair_index(i, j, np);
      ASSERT_LT(idx, seen.size());
      EXPECT_FALSE(seen[idx]);
      seen[idx] = true;
    }
  }
}

TEST(AugmentedMatrix, MatchesPaperPrintedExample) {
  // Paper §4 prints, for the Figure 1 single-beacon network:
  //   A = [1 1 0 0 0;   (pair 1,1)
  //        1 0 0 0 0;   (pair 1,2)
  //        1 0 0 0 0;   (pair 1,3)
  //        1 0 1 1 0;   (pair 2,2)
  //        1 0 1 0 0;   (pair 2,3)
  //        1 0 1 0 1]   (pair 3,3)
  const auto net = make_fig1_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  const auto a = build_augmented_matrix(rrm.matrix());
  ASSERT_EQ(a.rows(), 6u);
  ASSERT_EQ(a.cols(), 5u);
  const linalg::Matrix expected{{1, 1, 0, 0, 0}, {1, 0, 0, 0, 0},
                                {1, 0, 0, 0, 0}, {1, 0, 1, 1, 0},
                                {1, 0, 1, 0, 0}, {1, 0, 1, 0, 1}};
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(a(i, j), expected(i, j)) << "entry " << i << "," << j;
    }
  }
}

TEST(AugmentedMatrix, DiagonalPairRowsEqualRoutingRows) {
  const auto net = make_fig1_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  const auto a = build_augmented_matrix(rrm.matrix());
  const auto r = rrm.matrix().to_dense();
  const std::size_t np = rrm.path_count();
  for (std::size_t i = 0; i < np; ++i) {
    const auto arow = a.row(pair_index(i, i, np));
    const auto rrow = r.row(i);
    for (std::size_t j = 0; j < r.cols(); ++j) {
      EXPECT_DOUBLE_EQ(arow[j], rrow[j]);
    }
  }
}

TEST(AugmentedMatrix, ThrowsWhenTooLarge) {
  const auto net = make_fig1_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  EXPECT_THROW(build_augmented_matrix(rrm.matrix(), 10), std::length_error);
}

TEST(AugmentedMatrix, LemmaOneHolds) {
  // Lemma 1: Sigma = R diag(v) R^T  <=>  Sigma* = A v, entrywise.
  const auto net = make_fig1_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  const auto r = rrm.matrix().to_dense();
  const std::size_t np = rrm.path_count();
  const linalg::Vector v{0.05, 0.001, 0.02, 0.0, 0.01};
  // Direct: Sigma = R diag(v) R^T.
  linalg::Matrix rd = r;
  for (std::size_t i = 0; i < rd.rows(); ++i) {
    for (std::size_t j = 0; j < rd.cols(); ++j) rd(i, j) *= v[j];
  }
  const auto sigma = rd.multiply(r.transposed());
  // Via A: Sigma* = A v.
  const auto a = build_augmented_matrix(rrm.matrix());
  const auto sigma_star = a.multiply(v);
  for (std::size_t i = 0; i < np; ++i) {
    for (std::size_t j = i; j < np; ++j) {
      EXPECT_NEAR(sigma_star[pair_index(i, j, np)], sigma(i, j), 1e-14);
    }
  }
}

TEST(AugmentedMatrix, PackedCovariancesAlignWithPairIndex) {
  stats::Rng rng(51);
  const auto y = stats::SnapshotMatrix::from_rows(
      {{1.0, 2.0, 0.0}, {0.5, 1.0, 1.0}, {0.0, 0.5, 2.0}, {1.5, 0.0, 0.5}});
  const stats::CenteredSnapshots centered(y);
  const auto packed = losstomo::testing::packed_covariances(centered);
  ASSERT_EQ(packed.size(), pair_count(3));
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = i; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(packed[pair_index(i, j, 3)], centered.covariance(i, j));
    }
  }
}

TEST(AugmentedNormal, MatrixMatchesExplicitGram) {
  // (A^T A) from the closed form must equal gram(A) computed explicitly.
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  const auto a = build_augmented_matrix(rrm.matrix());
  const auto explicit_gram = a.gram();
  const linalg::CoTraversalGram gram(rrm.matrix());
  const auto implicit_gram = augmented_normal_matrix(gram);
  ASSERT_EQ(implicit_gram.rows(), explicit_gram.rows());
  for (std::size_t i = 0; i < explicit_gram.rows(); ++i) {
    for (std::size_t j = 0; j < explicit_gram.cols(); ++j) {
      EXPECT_DOUBLE_EQ(implicit_gram(i, j), explicit_gram(i, j))
          << i << "," << j;
    }
  }
}

TEST(AugmentedNormal, RhsMatchesExplicitProduct) {
  stats::Rng rng(52);
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  const auto mu = linalg::Vector(rrm.link_count(), -0.01);
  const auto v = losstomo::testing::random_variances(rrm.link_count(), rng, 0.3);
  const auto y =
      losstomo::testing::synthetic_observations(rrm.matrix(), mu, v, 25, rng);
  const stats::CenteredSnapshots centered(y);

  const auto a = build_augmented_matrix(rrm.matrix());
  const auto sigma = losstomo::testing::packed_covariances(centered);
  const auto explicit_rhs = a.multiply_transpose(sigma);
  const auto implicit_rhs =
      augmented_normal_rhs(centered, rrm.matrix().column_lists());
  ASSERT_EQ(implicit_rhs.size(), explicit_rhs.size());
  for (std::size_t k = 0; k < explicit_rhs.size(); ++k) {
    EXPECT_NEAR(implicit_rhs[k], explicit_rhs[k], 1e-10) << "link " << k;
  }
}

// Property: closed-form normal equations equal the explicit ones on random
// sparse routing matrices.
class AugmentedNormalProperty : public ::testing::TestWithParam<int> {};

TEST_P(AugmentedNormalProperty, ImplicitEqualsExplicit) {
  stats::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t np = 8, nc = 6;
  std::vector<std::vector<std::uint32_t>> rows(np);
  for (auto& row : rows) {
    for (std::uint32_t c = 0; c < nc; ++c) {
      if (rng.bernoulli(0.4)) row.push_back(c);
    }
    if (row.empty()) row.push_back(0);
  }
  const linalg::SparseBinaryMatrix r(nc, std::move(rows));
  const auto a = build_augmented_matrix(r);
  const linalg::CoTraversalGram gram(r);
  const auto implicit_gram = augmented_normal_matrix(gram);
  const auto explicit_gram = a.gram();
  for (std::size_t i = 0; i < nc; ++i) {
    for (std::size_t j = 0; j < nc; ++j) {
      EXPECT_DOUBLE_EQ(implicit_gram(i, j), explicit_gram(i, j));
    }
  }
  // RHS equality on random observations.
  stats::SnapshotMatrix y(np, 12);
  for (std::size_t l = 0; l < 12; ++l) {
    for (std::size_t i = 0; i < np; ++i) y.at(l, i) = rng.gaussian();
  }
  const stats::CenteredSnapshots centered(y);
  const auto explicit_rhs = a.multiply_transpose(losstomo::testing::packed_covariances(centered));
  const auto implicit_rhs = augmented_normal_rhs(centered, r.column_lists());
  for (std::size_t k = 0; k < nc; ++k) {
    EXPECT_NEAR(implicit_rhs[k], explicit_rhs[k], 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AugmentedNormalProperty,
                         ::testing::Range(300, 312));

}  // namespace
}  // namespace losstomo::core

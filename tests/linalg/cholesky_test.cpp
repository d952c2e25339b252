#include "linalg/cholesky.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/qr.hpp"
#include "stats/rng.hpp"

namespace losstomo::linalg {
namespace {

// Random SPD matrix A = B^T B + eps I.
Matrix random_spd(std::size_t n, stats::Rng& rng, double eps = 1e-3) {
  Matrix b(n + 2, n);
  for (std::size_t i = 0; i < b.rows(); ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.gaussian();
  }
  auto g = b.gram();
  for (std::size_t i = 0; i < n; ++i) g(i, i) += eps;
  return g;
}

TEST(Cholesky, FactorReproducesMatrix) {
  stats::Rng rng(5);
  const auto a = random_spd(6, rng);
  const Cholesky chol(a);
  const auto& l = chol.l();
  const auto llt = l.multiply(l.transposed());
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_NEAR(llt(i, j), a(i, j), 1e-9);
    }
  }
}

TEST(Cholesky, SolveRoundTrips) {
  stats::Rng rng(6);
  const auto a = random_spd(8, rng);
  Vector x_true(8);
  for (auto& v : x_true) v = rng.gaussian();
  const auto b = a.multiply(x_true);
  const auto x = Cholesky(a).solve(b);
  EXPECT_LT(max_abs_diff(x, x_true), 1e-7);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_THROW(Cholesky{a}, std::runtime_error);
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(Cholesky{Matrix(2, 3)}, std::invalid_argument);
}

TEST(Cholesky, SqrtDetOfIdentity) {
  EXPECT_DOUBLE_EQ(Cholesky(Matrix::identity(4)).sqrt_det(), 1.0);
}

TEST(RegularizedCholesky, CleanMatrixUsesNoJitter) {
  stats::Rng rng(7);
  const auto a = random_spd(5, rng);
  const RegularizedCholesky chol(a);
  EXPECT_DOUBLE_EQ(chol.jitter_used(), 0.0);
}

TEST(RegularizedCholesky, SingularMatrixGetsJitter) {
  // Rank-1 PSD matrix.
  Matrix a(3, 3);
  const Vector u{1.0, 2.0, 3.0};
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = u[i] * u[j];
  }
  const RegularizedCholesky chol(a);
  EXPECT_GT(chol.jitter_used(), 0.0);
  // The solve should still approximately satisfy the (regularized) system.
  const auto x = chol.solve(Vector{1.0, 2.0, 3.0});
  EXPECT_EQ(x.size(), 3u);
}

TEST(RegularizedCholesky, FromStateSolvesLikeTheFactorItCameFrom) {
  // A jittered factor (rank-1 PSD input) round-trips through its state —
  // the keep-all checkpoint path — with its jitter diagnostics and the
  // exact solve bits, and no refactorization.
  Matrix a(3, 3);
  const Vector u{1.0, 2.0, 3.0};
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = u[i] * u[j];
  }
  const RegularizedCholesky chol(a);
  ASSERT_GT(chol.jitter_used(), 0.0);
  const auto restored = RegularizedCholesky::from_state(
      chol.factor().l(), chol.jitter_used(), chol.jitter_attempts());
  EXPECT_EQ(restored.jitter_used(), chol.jitter_used());
  EXPECT_EQ(restored.jitter_attempts(), chol.jitter_attempts());
  const Vector b{1.0, -2.0, 0.5};
  EXPECT_EQ(restored.solve(b), chol.solve(b));
}

TEST(RegularizedCholesky, SizeMismatchThrows) {
  const RegularizedCholesky chol(Matrix::identity(3));
  const Vector wrong{1.0};
  EXPECT_THROW((void)chol.solve(wrong), std::invalid_argument);
  EXPECT_THROW((void)RegularizedCholesky::from_state(Matrix(2, 3), 0.0, 0),
               std::invalid_argument);
}

TEST(PivotedCholesky, FullRankSpd) {
  stats::Rng rng(8);
  const auto a = random_spd(7, rng);
  EXPECT_EQ(PivotedCholesky(a).rank(), 7u);
}

TEST(PivotedCholesky, DetectsRankOfLowRankPsd) {
  // A = B^T B with B 3 x 6 -> rank 3.
  stats::Rng rng(9);
  Matrix b(3, 6);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 6; ++j) b(i, j) = rng.gaussian();
  }
  EXPECT_EQ(PivotedCholesky(b.gram()).rank(), 3u);
}

TEST(PivotedCholesky, ZeroMatrixRankZero) {
  EXPECT_EQ(PivotedCholesky(Matrix(4, 4)).rank(), 0u);
}

TEST(PivotedCholesky, AgreesWithQrRank) {
  stats::Rng rng(10);
  for (int trial = 0; trial < 5; ++trial) {
    Matrix b(6, 9);
    for (std::size_t i = 0; i < 6; ++i) {
      for (std::size_t j = 0; j < 9; ++j) b(i, j) = rng.gaussian();
    }
    // Rank of B^T B equals rank of B (<= 6).
    EXPECT_EQ(PivotedCholesky(b.gram()).rank(), matrix_rank(b));
  }
}

TEST(IncrementalCholesky, AcceptsIndependentColumns) {
  // Columns of the identity: trivially independent.
  IncrementalCholesky inc;
  EXPECT_TRUE(inc.try_add(1.0, {}));
  const Vector cross1{0.0};
  EXPECT_TRUE(inc.try_add(1.0, cross1));
  EXPECT_EQ(inc.size(), 2u);
}

TEST(IncrementalCholesky, RejectsDependentColumn) {
  // c3 = c1 + c2 in R^3: gram entries follow.
  // c1=(1,0,0), c2=(0,1,0)->after: c3=(1,1,0): <c3,c1>=1, <c3,c2>=1, <c3,c3>=2.
  IncrementalCholesky inc;
  ASSERT_TRUE(inc.try_add(1.0, {}));
  ASSERT_TRUE(inc.try_add(1.0, Vector{0.0}));
  EXPECT_FALSE(inc.try_add(2.0, Vector{1.0, 1.0}));
  EXPECT_EQ(inc.size(), 2u);
  EXPECT_NEAR(inc.last_residual_sq(), 0.0, 1e-12);
}

TEST(IncrementalCholesky, SolveMatchesDirectCholesky) {
  stats::Rng rng(11);
  Matrix c(10, 4);  // column matrix
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 4; ++j) c(i, j) = rng.gaussian();
  }
  const auto g = c.gram();
  IncrementalCholesky inc;
  for (std::size_t j = 0; j < 4; ++j) {
    Vector cross(j);
    for (std::size_t k = 0; k < j; ++k) cross[k] = g(j, k);
    ASSERT_TRUE(inc.try_add(g(j, j), cross));
  }
  Vector b{1.0, -2.0, 0.5, 3.0};
  const auto x_inc = inc.solve(b);
  const auto x_direct = Cholesky(g).solve(b);
  EXPECT_LT(max_abs_diff(x_inc, x_direct), 1e-9);
}

TEST(IncrementalCholesky, CrossSizeMismatchThrows) {
  IncrementalCholesky inc;
  ASSERT_TRUE(inc.try_add(1.0, {}));
  const Vector wrong{0.0, 0.0};
  EXPECT_THROW(inc.try_add(1.0, wrong), std::invalid_argument);
}

TEST(IncrementalCholesky, ForwardBackwardConsistent) {
  IncrementalCholesky inc;
  ASSERT_TRUE(inc.try_add(4.0, {}));
  ASSERT_TRUE(inc.try_add(5.0, Vector{2.0}));
  const Vector b{1.0, 1.0};
  const auto w = inc.forward(b);
  const auto x = inc.backward(w);
  const auto x2 = inc.solve(b);
  EXPECT_LT(max_abs_diff(x, x2), 1e-12);
}

}  // namespace
}  // namespace losstomo::linalg

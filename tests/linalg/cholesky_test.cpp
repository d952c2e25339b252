#include "linalg/cholesky.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <stdexcept>
#include <vector>

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

// The unblocked row-dot loop that linalg::Cholesky ran before its blocked
// kernel, kept as the scalar reference: the lower factor, or nullopt on a
// pivot at or below `min_pivot`.
std::optional<Matrix> reference_cholesky(Matrix l, double min_pivot = 0.0) {
  const std::size_t n = l.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double d = l(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= l(j, k) * l(j, k);
    if (!(d > min_pivot)) return std::nullopt;
    const double ljj = std::sqrt(d);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = l(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / ljj;
    }
    for (std::size_t c = j + 1; c < n; ++c) l(j, c) = 0.0;
  }
  return l;
}

// RegularizedCholesky's jitter ladder over the reference factor: the rung
// that succeeds, or -1 when none does.
int reference_jitter_attempts(const Matrix& a, double jitter, int max_attempts,
                              double min_pivot_rel) {
  double max_diag = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    max_diag = std::max(max_diag, std::fabs(a(i, i)));
  }
  if (max_diag == 0.0) max_diag = 1.0;
  double eps = 0.0;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Matrix work = a;
    for (std::size_t i = 0; i < work.rows(); ++i) work(i, i) += eps;
    if (reference_cholesky(std::move(work), min_pivot_rel * max_diag)) {
      return attempt;
    }
    eps = (eps == 0.0) ? jitter * max_diag : eps * 10.0;
  }
  return -1;
}

// Sum of the pair equations `sets` over n links: each adds 1 on the block
// of its shared links, as a drop-negative G does.
Matrix pair_equation_gram(std::size_t n,
                          const std::vector<std::set<std::size_t>>& sets) {
  Matrix g(n, n);
  for (const auto& links : sets) {
    for (const auto a : links) {
      for (const auto b : links) g(a, b) += 1.0;
    }
  }
  return g;
}

// Random link sets of 1-4 shared links, 3n of them, plus one single-link
// equation per link (so their G is positive definite).
std::vector<std::set<std::size_t>> random_pair_equations(std::size_t n,
                                                         stats::Rng& rng) {
  std::vector<std::set<std::size_t>> sets;
  for (std::size_t a = 0; a < n; ++a) sets.push_back({a});
  for (std::size_t p = 0; p < 3 * n; ++p) {
    std::set<std::size_t> links;
    const std::size_t len = 1 + rng.index(4);
    for (std::size_t t = 0; t < len; ++t) links.insert(rng.index(n));
    sets.push_back(std::move(links));
  }
  return sets;
}

TEST(Cholesky, MatchesScalarReferenceAcrossPanelEdges) {
  // Sizes straddle the 48-row panel and the 4-row and 2-row unrolls.  The
  // blocked kernel subtracts in the reference's order, so only FMA
  // contraction separates the two: the bound is a few ulps of the largest
  // entry, far above the ~1e-16 observed and far below any real error.
  stats::Rng rng(12);
  for (const std::size_t n :
       {1u, 2u, 3u, 4u, 5u, 47u, 48u, 49u, 96u, 97u, 268u, 983u}) {
    SCOPED_TRACE(n);
    const Matrix g = pair_equation_gram(n, random_pair_equations(n, rng));
    const Cholesky chol(g);
    const auto ref = reference_cholesky(g);
    ASSERT_TRUE(ref.has_value());
    const auto& l = chol.l();
    double max_ref = 0.0;
    for (const double x : ref->data()) {
      max_ref = std::max(max_ref, std::fabs(x));
    }
    EXPECT_LE(max_abs_diff(l.data(), ref->data()), 1e-13 * max_ref);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) ASSERT_EQ(l(i, j), 0.0);
    }
  }
}

TEST(Cholesky, ReadsOnlyTheLowerTriangle) {
  stats::Rng rng(13);
  const Matrix g = pair_equation_gram(97, random_pair_equations(97, rng));
  Matrix scribbled = g;
  for (std::size_t i = 0; i < 97; ++i) {
    for (std::size_t j = i + 1; j < 97; ++j) scribbled(i, j) = -1e300;
  }
  EXPECT_EQ(Cholesky(scribbled).l().data(), Cholesky(g).l().data());
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
  // A jittered factor (rank-1 PSD input) and clean factors across the
  // panel edge round-trip through their state — the keep-all checkpoint
  // path — with their jitter diagnostics and the exact solve bits, and no
  // refactorization.
  Matrix rank1(3, 3);
  const Vector u{1.0, 2.0, 3.0};
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) rank1(i, j) = u[i] * u[j];
  }
  stats::Rng rng(14);
  std::vector<Matrix> inputs{rank1};
  for (const std::size_t n : {49u, 268u}) {
    inputs.push_back(pair_equation_gram(n, random_pair_equations(n, rng)));
  }
  for (const auto& a : inputs) {
    SCOPED_TRACE(a.rows());
    const RegularizedCholesky chol(a);
    if (a.rows() == 3) {
      ASSERT_GT(chol.jitter_used(), 0.0);
    }
    const auto restored = RegularizedCholesky::from_state(
        chol.factor().l(), chol.jitter_used(), chol.jitter_attempts());
    EXPECT_EQ(restored.jitter_used(), chol.jitter_used());
    EXPECT_EQ(restored.jitter_attempts(), chol.jitter_attempts());
    Vector b(a.rows());
    for (auto& x : b) x = rng.gaussian();
    EXPECT_EQ(restored.solve(b), chol.solve(b));
  }
}

TEST(RegularizedCholesky, JitterLadderMatchesReferenceOnSingularDropNegativeG) {
  // Exactly singular drop-negative systems: link b rides in exactly the
  // equations of link a, link c in exactly those of p or q (never both),
  // and link z in none, so its zero diagonal is pinned to 1 as the solve
  // does.  The ladder must climb to the same rung as over the reference
  // factor, with the solve's relative pivot floor.
  stats::Rng rng(15);
  for (const std::size_t n : {8u, 48u, 97u, 268u}) {
    for (int trial = 0; trial < 2; ++trial) {
      SCOPED_TRACE(::testing::Message() << "n " << n << " trial " << trial);
      std::vector<std::size_t> links(n);
      for (std::size_t i = 0; i < n; ++i) links[i] = i;
      for (std::size_t i = 0; i < 6; ++i) {
        std::swap(links[i], links[i + rng.index(n - i)]);
      }
      const std::size_t a = links[0], b = links[1], p = links[2],
                        q = links[3], c = links[4], z = links[5];
      auto sets = random_pair_equations(n, rng);
      for (auto& s : sets) {
        s.erase(b);
        s.erase(c);
        s.erase(z);
        if (s.count(a) != 0) s.insert(b);
        if (s.count(p) != 0) s.erase(q);
        if (s.count(p) != 0 || s.count(q) != 0) s.insert(c);
      }
      Matrix g = pair_equation_gram(n, sets);
      ASSERT_EQ(g(z, z), 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        if (g(i, i) == 0.0) g(i, i) = 1.0;
      }
      const int expected = reference_jitter_attempts(g, 1e-12, 6, 1e-12);
      ASSERT_GE(expected, 1);
      EXPECT_EQ(RegularizedCholesky(g, 1e-12, 6, 1e-12).jitter_attempts(),
                expected);
    }
  }
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

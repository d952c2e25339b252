#include "core/elimination.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <thread>

#include "linalg/qr.hpp"
#include "test_util.hpp"

namespace losstomo::core {
namespace {

// Brute-force reference: remove columns in ascending variance order, one at
// a time, until the remaining dense matrix has full column rank — exactly
// the paper's Phase-2 loop.
std::vector<std::uint32_t> brute_force_kept(const linalg::SparseBinaryMatrix& r,
                                            std::span<const double> v) {
  std::vector<std::uint32_t> order(r.cols());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return v[a] < v[b];  // ascending: removal order
  });
  const auto dense = r.to_dense();
  for (std::size_t removed = 0; removed <= order.size(); ++removed) {
    std::vector<std::uint32_t> kept(order.begin() + static_cast<std::ptrdiff_t>(removed),
                                    order.end());
    std::sort(kept.begin(), kept.end());
    linalg::Matrix sub(dense.rows(), kept.size());
    for (std::size_t i = 0; i < dense.rows(); ++i) {
      for (std::size_t j = 0; j < kept.size(); ++j) sub(i, j) = dense(i, kept[j]);
    }
    if (kept.empty() || linalg::matrix_rank(sub) == kept.size()) return kept;
  }
  return {};
}

TEST(Elimination, KeepsEverythingWhenFullRank) {
  // Identity-like routing: every link measured directly.
  const linalg::SparseBinaryMatrix r(3, {{0}, {1}, {2}});
  const linalg::Vector v{0.1, 0.2, 0.3};
  const auto result = eliminate_low_variance_links(r, v);
  EXPECT_EQ(result.kept.size(), 3u);
  EXPECT_TRUE(result.removed.empty());
}

TEST(Elimination, RemovesLowestVarianceDependentColumns) {
  // Fig-1 style: rank(R) = 3 < 5; the two lowest-variance links must go.
  const auto net = losstomo::testing::make_fig1_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  const linalg::Vector v{0.05, 1e-9, 0.02, 1e-8, 0.01};  // links 1,3 quiet
  const auto result = eliminate_low_variance_links(rrm.matrix(), v);
  EXPECT_EQ(result.kept.size(), 3u);
  EXPECT_EQ(result.removed.size(), 2u);
  // The removed set is exactly the two low-variance links.
  std::vector<std::uint32_t> removed = result.removed;
  std::sort(removed.begin(), removed.end());
  EXPECT_EQ(removed, (std::vector<std::uint32_t>{1, 3}));
}

TEST(Elimination, KeptOrderIsDescendingVariance) {
  const auto net = losstomo::testing::make_fig1_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  const linalg::Vector v{0.05, 1e-9, 0.02, 1e-8, 0.01};
  const auto result = eliminate_low_variance_links(rrm.matrix(), v);
  for (std::size_t i = 1; i < result.kept.size(); ++i) {
    EXPECT_GE(v[result.kept[i - 1]], v[result.kept[i]]);
  }
}

TEST(Elimination, MatchesBruteForceOnPaperExample) {
  const auto net = losstomo::testing::make_fig1_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  const linalg::Vector v{0.05, 1e-9, 0.02, 1e-8, 0.01};
  const auto fast = eliminate_low_variance_links(rrm.matrix(), v);
  const auto reference = brute_force_kept(rrm.matrix(), v);
  std::vector<std::uint32_t> kept = fast.kept;
  std::sort(kept.begin(), kept.end());
  EXPECT_EQ(kept, reference);
}

TEST(Elimination, FactorSolvesKeptGram) {
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  stats::Rng rng(91);
  const auto v = losstomo::testing::random_variances(rrm.link_count(), rng, 0.5);
  const auto result = eliminate_low_variance_links(rrm.matrix(), v);
  ASSERT_FALSE(result.kept.empty());
  // (R*^T R*) x = b solved by the incremental factor must satisfy the
  // explicit Gram system.
  const auto dense = rrm.matrix().to_dense();
  linalg::Matrix sub(dense.rows(), result.kept.size());
  for (std::size_t i = 0; i < dense.rows(); ++i) {
    for (std::size_t j = 0; j < result.kept.size(); ++j) {
      sub(i, j) = dense(i, result.kept[j]);
    }
  }
  const auto gram = sub.gram();
  linalg::Vector b(result.kept.size());
  for (std::size_t j = 0; j < b.size(); ++j) b[j] = rng.gaussian();
  const auto x = result.factor.solve(b);
  const auto gx = gram.multiply(x);
  EXPECT_LT(linalg::max_abs_diff(gx, b), 1e-8);
}

TEST(Elimination, RejectsSizeMismatch) {
  const linalg::SparseBinaryMatrix r(3, {{0, 1}, {1, 2}});
  const linalg::Vector v{0.1, 0.2};
  EXPECT_THROW(eliminate_low_variance_links(r, v), std::invalid_argument);
  const linalg::CoTraversalGram gram(r);
  EXPECT_THROW(eliminate_low_variance_links(gram, v), std::invalid_argument);
  EXPECT_THROW(
      eliminate_low_variance_links(gram, linalg::Vector{0.1, 0.2, 0.3, 0.4}),
      std::invalid_argument);
}

TEST(Elimination, GreedyModeKeepsMore) {
  // Construct variances so paper-mode stops early but a later column is
  // still independent: columns {0,1} dependent pair placed mid-order.
  // R: paths over 3 links where link0 == link1 incidence is impossible
  // after reduction, so use 4 links with a dependent triple instead.
  // r1 = {0}, r2 = {1}, r3 = {0,1,2}, link 3 = {0,1,2,3} path.
  const linalg::SparseBinaryMatrix r(4, {{0}, {1}, {0, 1, 2}, {0, 1, 2, 3}});
  // Variance order (desc): 0, 1, 2' (dependent on {0,1}? no - link 2 adds
  // new dimension).  Make column 2 dependent: col2 appears only with cols
  // 0,1 in rows 3,4 -> actually independent.  Simply verify greedy keeps a
  // superset of paper mode.
  const linalg::Vector v{0.4, 0.3, 0.2, 0.1};
  EliminationOptions paper;
  EliminationOptions greedy;
  greedy.stop_at_first_dependence = false;
  const auto kept_paper =
      eliminate_low_variance_links(r, v, paper).kept.size();
  const auto kept_greedy =
      eliminate_low_variance_links(r, v, greedy).kept.size();
  EXPECT_GE(kept_greedy, kept_paper);
}

// The Gram overload is the routing overload without its Gram build: every
// field is equal, and the factors solve a fixed rhs to the same bits, in
// both stopping modes.
TEST(Elimination, GramOverloadEqualsRoutingOverload) {
  for (int seed = 720; seed < 726; ++seed) {
    stats::Rng rng(static_cast<std::uint64_t>(seed));
    const auto mesh = losstomo::testing::make_random_mesh(30, 6, rng);
    if (mesh.paths.empty()) continue;
    const net::ReducedRoutingMatrix rrm(mesh.topo.graph, mesh.paths);
    const auto v =
        losstomo::testing::random_variances(rrm.link_count(), rng, 0.2);
    const linalg::CoTraversalGram gram(rrm.matrix());
    for (const bool stop : {true, false}) {
      EliminationOptions options;
      options.stop_at_first_dependence = stop;
      const auto from_r = eliminate_low_variance_links(rrm.matrix(), v, options);
      const auto from_gram = eliminate_low_variance_links(gram, v, options);
      const std::string label =
          "seed " + std::to_string(seed) + " stop " + std::to_string(stop);
      EXPECT_EQ(from_gram.kept, from_r.kept) << label;
      EXPECT_EQ(from_gram.removed, from_r.removed) << label;
      EXPECT_EQ(from_gram.order, from_r.order) << label;
      ASSERT_EQ(from_gram.factor.size(), from_r.factor.size()) << label;
      linalg::Vector b(from_r.factor.size());
      for (std::size_t j = 0; j < b.size(); ++j) {
        b[j] = 1.0 + static_cast<double>(j % 7);
      }
      EXPECT_EQ(from_gram.factor.solve(b), from_r.factor.solve(b)) << label;
    }
  }
}

// Lia and the monitor hand one read-only N to every elimination; calls on
// it from several threads at once agree with a serial call.
TEST(Elimination, ConcurrentCallsOnOneGramAgree) {
  stats::Rng rng(727);
  const auto mesh = losstomo::testing::make_random_mesh(30, 6, rng);
  ASSERT_FALSE(mesh.paths.empty());
  const net::ReducedRoutingMatrix rrm(mesh.topo.graph, mesh.paths);
  const auto v = losstomo::testing::random_variances(rrm.link_count(), rng, 0.2);
  const linalg::CoTraversalGram gram(rrm.matrix());
  const auto serial = eliminate_low_variance_links(gram, v);
  std::vector<Elimination> results(4);
  {
    std::vector<std::jthread> workers;  // joined at the end of the scope
    for (auto& result : results) {
      workers.emplace_back([&gram, &v, &result] {
        result = eliminate_low_variance_links(gram, v);
      });
    }
  }
  for (const auto& result : results) {
    EXPECT_EQ(result.kept, serial.kept);
    EXPECT_EQ(result.removed, serial.removed);
  }
}

// Property: on random meshes with random variances, elimination equals the
// brute-force paper loop and the kept set has full rank.
class EliminationProperty : public ::testing::TestWithParam<int> {};

TEST_P(EliminationProperty, MatchesBruteForce) {
  stats::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto mesh = losstomo::testing::make_random_mesh(30, 6, rng);
  if (mesh.paths.empty()) GTEST_SKIP();
  const net::ReducedRoutingMatrix rrm(mesh.topo.graph, mesh.paths);
  const auto v = losstomo::testing::random_variances(rrm.link_count(), rng, 0.2);
  const auto fast = eliminate_low_variance_links(rrm.matrix(), v);
  const auto reference = brute_force_kept(rrm.matrix(), v);
  std::vector<std::uint32_t> kept = fast.kept;
  std::sort(kept.begin(), kept.end());
  EXPECT_EQ(kept, reference);
}

TEST_P(EliminationProperty, KeptColumnsIndependent) {
  stats::Rng rng(static_cast<std::uint64_t>(GetParam()) + 50);
  const auto mesh = losstomo::testing::make_random_mesh(30, 6, rng);
  if (mesh.paths.empty()) GTEST_SKIP();
  const net::ReducedRoutingMatrix rrm(mesh.topo.graph, mesh.paths);
  const auto v = losstomo::testing::random_variances(rrm.link_count(), rng, 0.2);
  const auto result = eliminate_low_variance_links(rrm.matrix(), v);
  const auto dense = rrm.matrix().to_dense();
  linalg::Matrix sub(dense.rows(), result.kept.size());
  for (std::size_t i = 0; i < dense.rows(); ++i) {
    for (std::size_t j = 0; j < result.kept.size(); ++j) {
      sub(i, j) = dense(i, result.kept[j]);
    }
  }
  EXPECT_EQ(linalg::matrix_rank(sub), result.kept.size());
  // The maximal independent suffix can be smaller than rank(R) when a
  // dependence interleaves the variance order, never larger.
  EXPECT_LE(result.kept.size(), linalg::matrix_rank(dense));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EliminationProperty,
                         ::testing::Range(700, 710));

}  // namespace
}  // namespace losstomo::core

// The keep-all closed-form rhs is one kernel, core::augmented_normal_rhs
// over a stats::SnapshotWindow, shared by the batch estimator (a centred
// CenteredSnapshots window) and the streaming refresh (the raw ring of a
// stats::StreamingMoments).  Fed the same snapshots both ways it must give
// the same h bit for bit — through drift refreshes, ring wrap-around and
// add_paths growth — at any thread count, and equal the pair sum over S
// up to rounding.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/augmented_matrix.hpp"
#include "core/variance_estimator.hpp"
#include "stats/rng.hpp"
#include "stats/streaming.hpp"
#include "test_util.hpp"

namespace losstomo::core {
namespace {

// h_k = 1/2 [ sum_{i,j in S_k} S_ij + sum_{i in S_k} S_ii ] over a
// materialised S.
linalg::Vector rhs_over_matrix(const linalg::Matrix& s,
                               const linalg::SparseBinaryMatrix& r) {
  const auto columns = r.column_lists();
  linalg::Vector h(columns.size(), 0.0);
  for (std::size_t k = 0; k < columns.size(); ++k) {
    double full_sum = 0.0;
    double diag = 0.0;
    for (const auto i : columns[k]) {
      diag += s(i, i);
      for (const auto j : columns[k]) full_sum += s(i, j);
    }
    h[k] = 0.5 * (full_sum + diag);
  }
  return h;
}

// The window's snapshots copied out oldest first.
stats::SnapshotMatrix copy_window(const stats::SnapshotWindow& w) {
  stats::SnapshotMatrix y(w.dim, w.count);
  for (std::size_t l = 0; l < w.count; ++l) {
    const auto src = w.sample(l);
    std::copy(src.begin(), src.end(), y.sample(l).begin());
  }
  return y;
}

VarianceOptions keep_options(std::size_t threads) {
  VarianceOptions options;
  options.negatives = NegativeCovariancePolicy::kKeep;
  options.threads = threads;
  return options;
}

TEST(WindowRhs, StreamingWindowEqualsCenteredSnapshots) {
  stats::Rng mesh_rng(43);
  const auto mesh = losstomo::testing::make_random_mesh(60, 22, mesh_rng);
  const auto base = net::ReducedRoutingMatrix(mesh.topo.graph, mesh.paths);
  ASSERT_GT(base.matrix().rows(), 256u);  // several path chunks
  const std::size_t window = 10;
  const std::size_t grow_at = 2 * window + 3;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    linalg::SparseBinaryMatrix r = base.matrix();
    stats::StreamingMoments acc(
        r.rows(), {.window = window, .refresh_every = 13, .threads = threads});
    stats::Rng rng(7);
    std::size_t compared = 0;
    for (std::size_t t = 0; t < 5 * window; ++t) {
      if (t == grow_at) {
        // Three paths join, routed over existing links.
        std::vector<std::vector<std::uint32_t>> rows;
        for (std::size_t n = 0; n < 3; ++n) {
          const auto row = r.row(n * 5);
          rows.emplace_back(row.begin(), row.end());
        }
        r.append_rows(0, std::move(rows));
        acc.add_paths(3);
      }
      std::vector<double> y(r.rows());
      for (auto& v : y) v = rng.gaussian(-0.05, 0.2);
      acc.push(y);
      if (acc.count() < 2) continue;

      const auto h = augmented_normal_rhs(acc.snapshots(), r, threads);
      const stats::CenteredSnapshots centered(copy_window(acc.snapshots()));
      EXPECT_EQ(h, augmented_normal_rhs(centered.window(), r, threads))
          << "push " << t;
      EXPECT_EQ(h, augmented_normal_rhs(centered.window(), r, 1))
          << "push " << t;
      // A fresh instance and the batch entry point run the same kernel.
      EXPECT_EQ(h, StreamingNormalEquations(r, keep_options(threads))
                       .refresh(acc)
                       .h);
      EXPECT_EQ(h, build_normal_equations(r, copy_window(acc.snapshots()),
                                          keep_options(threads))
                       .h);
      // And the closed form is the pair sum over S.
      const auto over_s =
          rhs_over_matrix(losstomo::testing::materialize(acc.view()), r);
      EXPECT_LE(linalg::max_abs_diff(h, over_s), 1e-10) << "push " << t;
      ++compared;
    }
    EXPECT_EQ(compared, 5 * window - 1);
    EXPECT_GE(acc.refreshes(), 2u);
    EXPECT_EQ(acc.dim(), base.matrix().rows() + 3);
  }
}

TEST(WindowRhs, RejectsShortOrMismatchedWindows) {
  const auto net = losstomo::testing::make_fig1_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  stats::StreamingMoments acc(rrm.matrix().rows(), {.window = 4});
  const std::vector<double> y{0.1, 0.2, 0.3};
  acc.push(y);
  EXPECT_THROW(augmented_normal_rhs(acc.snapshots(), rrm.matrix()),
               std::logic_error);
  acc.push(y);
  const linalg::SparseBinaryMatrix wider(5, {{0}, {1}, {2}, {3}});
  EXPECT_THROW(augmented_normal_rhs(acc.snapshots(), wider),
               std::invalid_argument);
}

}  // namespace
}  // namespace losstomo::core

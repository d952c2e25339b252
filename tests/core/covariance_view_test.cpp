// Phase 1 reads S through a stats::CovarianceView {c, scale}.  The systems
// it builds must equal, bit for bit, the same systems built over a
// materialised S: the drop-negative refresh (h, used, dropped, pending
// flips and G) and the batch drop-negative build, on the dense streaming
// source (C with scale 1/(n-1)) and on the batch source (S with scale
// 1.0).  The keep-all closed form reads no S; its window kernel is pinned
// in window_rhs_test.cpp.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/variance_estimator.hpp"
#include "stats/covariance_source.hpp"
#include "stats/rng.hpp"
#include "stats/streaming.hpp"
#include "test_util.hpp"

namespace losstomo::core {
namespace {

// A source that serves a materialised copy of another source's S.
class MaterializedSource final : public stats::CovarianceSource {
 public:
  explicit MaterializedSource(const stats::CovarianceSource& of)
      : s_(losstomo::testing::materialize(of.view())), count_(of.count()) {}

  [[nodiscard]] std::size_t dim() const override { return s_.rows(); }
  [[nodiscard]] std::size_t count() const override { return count_; }
  [[nodiscard]] double covariance(std::size_t i, std::size_t j) const override {
    return s_(i, j);
  }
  [[nodiscard]] stats::CovarianceView view() const override {
    return {s_, 1.0};
  }
  [[nodiscard]] bool view_is_cheap() const override { return true; }

 private:
  linalg::Matrix s_;
  std::size_t count_;
};

linalg::SparseBinaryMatrix mesh_matrix() {
  stats::Rng rng(43);
  const auto mesh = losstomo::testing::make_random_mesh(40, 12, rng);
  return net::ReducedRoutingMatrix(mesh.topo.graph, mesh.paths).matrix();
}

VarianceOptions drop_options(std::size_t threads) {
  VarianceOptions options;
  options.negatives = NegativeCovariancePolicy::kDrop;
  options.threads = threads;
  return options;
}

// One refresh of `through_view` on `source` and of `over_matrix` on its
// materialised copy; both systems must match exactly.
void expect_same_refresh(StreamingNormalEquations& through_view,
                         StreamingNormalEquations& over_matrix,
                         const stats::CovarianceSource& source) {
  const MaterializedSource materialized(source);
  const auto& a = through_view.refresh(source);
  const auto& b = over_matrix.refresh(materialized);
  EXPECT_EQ(a.h, b.h);
  EXPECT_EQ(a.used, b.used);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_GT(a.dropped, 0u);  // negative covariances exist to drop
  EXPECT_EQ(a.g.data(), b.g.data());
  EXPECT_EQ(through_view.pending_flips(), over_matrix.pending_flips());
}

// The batch drop-negative build (build_normal_equations on a source) reads
// the same view entries; it must match its materialised twin too.
void expect_same_build(const linalg::SparseBinaryMatrix& r,
                       const stats::CovarianceSource& source,
                       std::size_t threads) {
  const auto a = build_normal_equations(r, source, drop_options(threads));
  const auto b = build_normal_equations(r, MaterializedSource(source),
                                        drop_options(threads));
  EXPECT_EQ(a.h, b.h);
  EXPECT_EQ(a.g.data(), b.g.data());
  EXPECT_EQ(a.used, b.used);
  EXPECT_EQ(a.dropped, b.dropped);
}

TEST(CovarianceView, StreamingSourceBuildsTheMaterializedSystem) {
  const auto r = mesh_matrix();
  const std::size_t window = 10;
  for (const std::size_t threads : {1u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    stats::StreamingMoments acc(
        r.rows(), {.window = window, .refresh_every = 13, .threads = threads});
    StreamingNormalEquations through_view(r, drop_options(threads));
    StreamingNormalEquations over_matrix(r, drop_options(threads));
    stats::Rng rng(7);
    std::vector<double> y(r.rows());
    std::size_t flips = 0;
    for (std::size_t t = 0; t < 4 * window; ++t) {
      for (auto& v : y) v = rng.gaussian(-0.05, 0.2);
      acc.push(y);
      if (acc.count() < window) continue;  // warm-up
      expect_same_refresh(through_view, over_matrix, acc);
      expect_same_build(r, acc, threads);
      flips += through_view.pending_flips();
      (void)through_view.solve();
      (void)over_matrix.solve();
    }
    EXPECT_GE(acc.refreshes(), 2u);
    EXPECT_GT(flips, 0u);  // the sign-flip path was exercised
  }
}

TEST(CovarianceView, BatchSourceBuildsTheMaterializedSystem) {
  const auto r = mesh_matrix();
  stats::Rng rng(11);
  for (const std::size_t threads : {1u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    StreamingNormalEquations through_view(r, drop_options(threads));
    StreamingNormalEquations over_matrix(r, drop_options(threads));
    for (std::size_t draw = 0; draw < 3; ++draw) {
      stats::SnapshotMatrix y(r.rows(), 12);
      for (std::size_t l = 0; l < y.count(); ++l) {
        for (auto& v : y.sample(l)) v = rng.gaussian(-0.05, 0.2);
      }
      const stats::BatchCovarianceSource source(y, threads);
      EXPECT_EQ(source.view().scale, 1.0);
      expect_same_refresh(through_view, over_matrix, source);
      expect_same_build(r, source, threads);
      (void)through_view.solve();
      (void)over_matrix.solve();
    }
  }
}

}  // namespace
}  // namespace losstomo::core

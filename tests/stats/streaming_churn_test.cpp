// Path-churn bookkeeping of the sliding-window accumulator: add/retire is
// pure bookkeeping on top of a uniform incremental invariant — after a
// (re)activated dimension's filler has been flushed out of the ring, its
// moments equal a from-scratch computation over the real window.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/moments.hpp"
#include "stats/rng.hpp"
#include "stats/streaming.hpp"

namespace losstomo::stats {
namespace {

// From-scratch covariance of the last `window` pushed rows.
double reference_cov(const std::vector<std::vector<double>>& rows,
                     std::size_t window, std::size_t i, std::size_t j) {
  const std::size_t start = rows.size() - window;
  double mi = 0.0, mj = 0.0;
  for (std::size_t l = start; l < rows.size(); ++l) {
    mi += rows[l][i];
    mj += rows[l][j];
  }
  mi /= static_cast<double>(window);
  mj /= static_cast<double>(window);
  double c = 0.0;
  for (std::size_t l = start; l < rows.size(); ++l) {
    c += (rows[l][i] - mi) * (rows[l][j] - mj);
  }
  return c / static_cast<double>(window - 1);
}

TEST(StreamingChurn, RetireAndRejoinRecoversExactMoments) {
  constexpr std::size_t kDim = 6, kWindow = 8;
  StreamingMoments acc(kDim, {.window = kWindow});
  Rng rng(99);
  std::vector<std::vector<double>> rows;
  const auto push = [&](bool path2_active) {
    std::vector<double> y(kDim);
    for (std::size_t i = 0; i < kDim; ++i) y[i] = rng.gaussian(0.0, 1.0);
    if (!path2_active) y[2] = 0.0;  // deterministic filler for the retiree
    rows.push_back(y);
    acc.push(y);
  };

  for (std::size_t l = 0; l < kWindow + 3; ++l) push(true);
  ASSERT_TRUE(acc.pair_ready(2, 4));

  // Retire path 2: readiness drops immediately, every other pair is
  // untouched.
  acc.retire_path(2);
  EXPECT_FALSE(acc.path_active(2));
  EXPECT_EQ(acc.samples(2), 0u);
  EXPECT_FALSE(acc.pair_ready(2, 4));
  EXPECT_TRUE(acc.pair_ready(0, 4));
  for (std::size_t l = 0; l < 3; ++l) push(false);
  EXPECT_NEAR(acc.covariance(0, 4), reference_cov(rows, kWindow, 0, 4), 1e-12);

  // Rejoin: not ready until the filler slots have been flushed...
  acc.activate_path(2);
  for (std::size_t l = 0; l + 1 < kWindow; ++l) {
    push(true);
    EXPECT_FALSE(acc.pair_ready(2, 4)) << "after " << l + 1 << " pushes";
  }
  push(true);
  // ...then exactly the from-scratch window moments again.
  EXPECT_TRUE(acc.pair_ready(2, 4));
  for (std::size_t i = 0; i < kDim; ++i) {
    for (std::size_t j = i; j < kDim; ++j) {
      EXPECT_NEAR(acc.covariance(i, j), reference_cov(rows, kWindow, i, j),
                  1e-12)
          << "(" << i << "," << j << ")";
    }
  }
}

TEST(StreamingChurn, AddPathGrowsWithZeroHistoryInvariant) {
  constexpr std::size_t kWindow = 6;
  StreamingMoments acc(3, {.window = kWindow});
  Rng rng(7);
  std::vector<std::vector<double>> rows;
  const auto push = [&](std::size_t dims) {
    std::vector<double> y(dims);
    for (auto& v : y) v = rng.gaussian(0.0, 1.0);
    auto padded = y;
    padded.resize(4, 0.0);  // reference always sees 4 dims (zero history)
    rows.push_back(padded);
    acc.push(y);
  };
  for (std::size_t l = 0; l < kWindow + 2; ++l) push(3);

  const std::size_t added = acc.add_paths(1);
  EXPECT_EQ(added, 3u);
  EXPECT_EQ(acc.dim(), 4u);
  EXPECT_EQ(acc.samples(3), 0u);
  EXPECT_FALSE(acc.pair_ready(3, 0));
  EXPECT_TRUE(acc.pair_ready(0, 1));  // old dims unaffected

  for (std::size_t l = 0; l < kWindow; ++l) push(4);
  EXPECT_TRUE(acc.pair_ready(3, 0));
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i; j < 4; ++j) {
      EXPECT_NEAR(acc.covariance(i, j), reference_cov(rows, kWindow, i, j),
                  1e-12);
    }
  }
}

TEST(StreamingChurn, NonChurnedSourceReportsFullWindow) {
  StreamingMoments acc(2, {.window = 4});
  acc.push(std::vector<double>{1.0, 2.0});
  acc.push(std::vector<double>{2.0, 1.0});
  EXPECT_EQ(acc.samples(0), acc.count());
  EXPECT_TRUE(acc.pair_ready(0, 1));
}

}  // namespace
}  // namespace losstomo::stats

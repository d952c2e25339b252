#include "stats/streaming.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>

#include "stats/covariance_source.hpp"
#include "stats/rng.hpp"
#include "test_util.hpp"

namespace losstomo::stats {
namespace {

constexpr std::size_t kDim = 6;

// A stream of correlated observations through the two-beacon routing
// matrix, so off-diagonal covariances are exercised.
std::vector<linalg::Vector> make_stream(std::size_t ticks, std::uint64_t seed) {
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  stats::Rng rng(seed);
  const auto v = losstomo::testing::random_variances(rrm.link_count(), rng, 0.4);
  const linalg::Vector mu(rrm.link_count(), -0.03);
  const auto y = losstomo::testing::synthetic_observations(rrm.matrix(), mu, v,
                                                           ticks, rng);
  EXPECT_EQ(y.dim(), kDim);
  std::vector<linalg::Vector> stream;
  for (std::size_t l = 0; l < ticks; ++l) {
    const auto row = y.sample(l);
    stream.emplace_back(row.begin(), row.end());
  }
  return stream;
}

// Batch covariance of the trailing window, the reference the accumulator
// must track.
linalg::Matrix batch_covariance(const std::deque<linalg::Vector>& window) {
  stats::SnapshotMatrix y(window.front().size(), window.size());
  for (std::size_t l = 0; l < window.size(); ++l) {
    std::copy(window[l].begin(), window[l].end(), y.sample(l).begin());
  }
  const stats::CenteredSnapshots centered(y);
  return covariance_matrix(centered, 1);
}

double max_matrix_diff(const linalg::Matrix& a, const linalg::Matrix& b) {
  return linalg::max_abs_diff(a.data(), b.data());
}

linalg::Matrix covariance_of(const StreamingMoments& acc) {
  return losstomo::testing::materialize(acc.view());
}

// Satellite: parity against the batch covariance to <= 1e-10 after >= 3
// window wrap-arounds, at 1/2/8 threads, including the drift-refresh
// boundary (refresh_every deliberately not aligned with the window).
TEST(StreamingMoments, TracksBatchCovarianceThroughWrapArounds) {
  const std::size_t window = 16;
  const auto stream = make_stream(4 * window, 501);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    StreamingMoments acc(kDim, {.window = window,
                                .refresh_every = window + 7,
                                .threads = threads});
    std::deque<linalg::Vector> reference;
    for (const auto& y : stream) {
      const std::size_t refreshes_before = acc.refreshes();
      acc.push(y);
      reference.emplace_back(y);
      if (reference.size() > window) reference.pop_front();
      if (acc.count() < 2) continue;
      const double diff = max_matrix_diff(covariance_of(acc), batch_covariance(reference));
      EXPECT_LE(diff, 1e-10) << "threads=" << threads
                             << " push=" << acc.pushes()
                             << " refreshed=" << (acc.refreshes() > refreshes_before);
    }
    // >= 3 wrap-arounds and at least one drift refresh actually happened.
    EXPECT_EQ(acc.pushes(), 4 * window);
    EXPECT_GE(acc.refreshes(), 2u);
  }
}

TEST(StreamingMoments, BitIdenticalAtAnyThreadCount) {
  const std::size_t window = 12;
  const auto stream = make_stream(3 * window + 5, 502);
  std::vector<linalg::Matrix> results;
  std::vector<linalg::Vector> means;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    StreamingMoments acc(kDim, {.window = window, .threads = threads});
    for (const auto& y : stream) acc.push(y);
    results.push_back(covariance_of(acc));
    means.push_back(acc.means());
  }
  for (std::size_t t = 1; t < results.size(); ++t) {
    EXPECT_EQ(results[0].data(), results[t].data());
    EXPECT_EQ(means[0], means[t]);
  }
}

TEST(StreamingMoments, ManualRefreshDiscardsDriftOnly) {
  const std::size_t window = 10;
  const auto stream = make_stream(3 * window, 503);
  StreamingMoments acc(kDim, {.window = window, .refresh_every = 1000});
  for (const auto& y : stream) acc.push(y);
  const linalg::Matrix drifted = covariance_of(acc);
  acc.refresh();
  EXPECT_LE(max_matrix_diff(drifted, covariance_of(acc)), 1e-12);
}

TEST(StreamingMoments, MeansMatchWindowAverages) {
  const std::size_t window = 8;
  const auto stream = make_stream(2 * window + 3, 504);
  StreamingMoments acc(kDim, {.window = window});
  std::deque<linalg::Vector> reference;
  for (const auto& y : stream) {
    acc.push(y);
    reference.emplace_back(y);
    if (reference.size() > window) reference.pop_front();
  }
  for (std::size_t i = 0; i < kDim; ++i) {
    double mean = 0.0;
    for (const auto& y : reference) mean += y[i];
    mean /= static_cast<double>(reference.size());
    EXPECT_NEAR(acc.means()[i], mean, 1e-12);
  }
}

// covariance(i, j) and the dense view agree to the last bit — both are
// C_ij * (1/(n-1)) — through warm-up, wrap-around and a drift refresh.
TEST(StreamingMoments, CovarianceEntriesMatchMatrix) {
  const std::size_t window = 8;
  const auto stream = make_stream(3 * window + 2, 505);
  StreamingMoments acc(kDim, {.window = window, .refresh_every = window + 3});
  for (const auto& y : stream) {
    acc.push(y);
    if (acc.count() < 2) continue;
    const auto view = acc.view();
    EXPECT_EQ(view.scale, 1.0 / static_cast<double>(acc.count() - 1));
    const auto s = losstomo::testing::materialize(view);
    for (std::size_t i = 0; i < kDim; ++i) {
      for (std::size_t j = 0; j < kDim; ++j) {
        EXPECT_EQ(acc.covariance(i, j), s(i, j))
            << "push " << acc.pushes() << " entry " << i << "," << j;
      }
    }
  }
  EXPECT_EQ(acc.pushes(), 3 * window + 2);
  EXPECT_GE(acc.refreshes(), 2u);
}

TEST(StreamingMoments, WindowFillSemantics) {
  StreamingMoments acc(3, {.window = 4});
  const linalg::Vector y{1.0, 2.0, 3.0};
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_FALSE(acc.full());
  for (std::size_t t = 0; t < 6; ++t) acc.push(y);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_TRUE(acc.full());
  EXPECT_EQ(acc.pushes(), 6u);
}

TEST(StreamingMoments, RejectsBadConfigAndInput) {
  EXPECT_THROW(StreamingMoments(3, {.window = 1}), std::invalid_argument);
  StreamingMoments acc(3, {.window = 4});
  const linalg::Vector wrong{1.0, 2.0};
  EXPECT_THROW(acc.push(wrong), std::invalid_argument);
  acc.push(linalg::Vector{1.0, 2.0, 3.0});
  EXPECT_THROW(static_cast<void>(acc.covariance(0, 0)), std::logic_error);
  EXPECT_THROW(static_cast<void>(acc.view()), std::logic_error);
}

// The keep-all ring keeps the dense accumulator's window push for push —
// ring, cursors, means, refresh cadence, churn ledger, growth — and no
// cross-products.
TEST(SnapshotRing, KeepsTheStreamingMomentsWindow) {
  const auto stream = make_stream(40, 17);
  const StreamingMomentsOptions options{.window = 7, .refresh_every = 9};
  StreamingMoments dense(kDim, options);
  SnapshotRing ring(kDim, options);
  const auto expect_same_window = [&](std::size_t t) {
    const SnapshotWindow a = dense.snapshots();
    const SnapshotWindow b = ring.snapshots();
    ASSERT_EQ(a.dim, b.dim) << t;
    EXPECT_EQ(a.count, b.count) << t;
    EXPECT_EQ(a.head, b.head) << t;
    EXPECT_TRUE(std::equal(a.ring.begin(), a.ring.end(), b.ring.begin(),
                           b.ring.end()))
        << t;
    EXPECT_EQ(dense.means(), ring.means()) << t;
    EXPECT_EQ(dense.refreshes(), ring.refreshes()) << t;
    for (std::size_t i = 0; i < a.dim; ++i) {
      EXPECT_EQ(dense.samples(i), ring.samples(i)) << t;
    }
  };
  for (std::size_t t = 0; t < stream.size(); ++t) {
    if (t == 12) {
      dense.retire_path(2);
      ring.retire_path(2);
    }
    if (t == 15) {
      dense.activate_path(2);
      ring.activate_path(2);
    }
    auto y = stream[t];
    if (t >= 25) {
      if (t == 25) {
        EXPECT_EQ(dense.add_paths(2), kDim);
        EXPECT_EQ(ring.add_paths(2), kDim);
      }
      y.push_back(0.25 * y[0]);
      y.push_back(-0.5 * y[1]);
    }
    dense.push(y);
    ring.push(y);
    expect_same_window(t);
  }
  EXPECT_GT(ring.refreshes(), 2u);
  EXPECT_THROW(static_cast<void>(ring.view()), std::logic_error);
  EXPECT_THROW(static_cast<void>(ring.covariance(0, 1)), std::logic_error);
  EXPECT_THROW(ring.push(linalg::Vector(kDim, 0.0)), std::invalid_argument);
  EXPECT_THROW(SnapshotRing(3, {.window = 1}), std::invalid_argument);
}

}  // namespace
}  // namespace losstomo::stats

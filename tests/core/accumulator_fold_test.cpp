// The one-sweep fold of both streaming accumulators against the two-pass
// Youngs–Cramer recurrences written out in scalar form: a full retire pass,
// then a full add pass.  stats::StreamingMoments' C and core::PairMoments'
// pair values must equal the two-pass replay exactly (==) after every push
// — through warm-up, window wrap-around, drift refreshes, retire/activate
// with a 0.0 filler, and an add_paths burst in the middle of a full
// window — at threads 1, 2 and 8.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/pair_moments.hpp"
#include "core/sharing_pairs.hpp"
#include "linalg/kernels.hpp"
#include "stats/rng.hpp"
#include "stats/streaming.hpp"
#include "test_util.hpp"

namespace losstomo::core {
namespace {

// Scalar two-pass replay of the window recurrences, tracking the dense C
// and the cross-products of a list of (i, j) pairs side by side.
class TwoPassReplay {
 public:
  TwoPassReplay(std::size_t dim, std::size_t window, std::size_t refresh_every)
      : dim_(dim),
        window_(window),
        refresh_every_(refresh_every),
        mean_(dim, 0.0),
        cross_(dim * dim, 0.0) {}

  void set_pairs(std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs) {
    pairs_ = std::move(pairs);
    values_.resize(pairs_.size(), 0.0);  // new pairs: all-zero history
  }

  void push(const std::vector<double>& y) {
    if (ring_.size() == window_) {
      const double n = static_cast<double>(ring_.size());
      std::vector<double> delta(dim_);
      for (std::size_t i = 0; i < dim_; ++i) delta[i] = ring_.front()[i] - mean_[i];
      for (std::size_t i = 0; i < dim_; ++i) mean_[i] -= delta[i] / (n - 1.0);
      ring_.pop_front();
      rank1(-n / (n - 1.0), delta);
    }
    ring_.push_back(y);
    const double n1 = static_cast<double>(ring_.size());
    std::vector<double> delta(dim_);
    for (std::size_t i = 0; i < dim_; ++i) delta[i] = y[i] - mean_[i];
    for (std::size_t i = 0; i < dim_; ++i) mean_[i] += delta[i] / n1;
    if (ring_.size() > 1) rank1((n1 - 1.0) / n1, delta);
    if (++since_refresh_ >= refresh_every_) refresh();
  }

  void add_paths(std::size_t count) {
    const std::size_t next = dim_ + count;
    std::vector<double> cross(next * next, 0.0);
    for (std::size_t i = 0; i < dim_; ++i) {
      for (std::size_t j = 0; j < dim_; ++j) cross[i * next + j] = cross_[i * dim_ + j];
    }
    cross_ = std::move(cross);
    for (auto& y : ring_) y.resize(next, 0.0);
    mean_.resize(next, 0.0);
    dim_ = next;
  }

  [[nodiscard]] const std::vector<double>& cross() const { return cross_; }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  [[nodiscard]] const std::vector<double>& means() const { return mean_; }

 private:
  void rank1(double w, const std::vector<double>& d) {
    for (std::size_t i = 0; i < dim_; ++i) {
      const double wi = w * d[i];
      if (wi == 0.0) continue;
      for (std::size_t j = 0; j < dim_; ++j) cross_[i * dim_ + j] += wi * d[j];
    }
    for (std::size_t p = 0; p < pairs_.size(); ++p) {
      const auto [i, j] = pairs_[p];
      values_[p] += w * d[i] * d[j];
    }
  }

  void refresh() {
    since_refresh_ = 0;
    std::fill(mean_.begin(), mean_.end(), 0.0);
    for (const auto& y : ring_) {
      for (std::size_t i = 0; i < dim_; ++i) mean_[i] += y[i];
    }
    const double inv = 1.0 / static_cast<double>(ring_.size());
    for (auto& m : mean_) m *= inv;
    std::vector<double> centered;
    for (const auto& y : ring_) {
      for (std::size_t i = 0; i < dim_; ++i) centered.push_back(y[i] - mean_[i]);
    }
    cross_ = linalg::blocked_gram(centered.data(), ring_.size(), dim_, 1.0, 1)
                 .data();
    for (std::size_t p = 0; p < pairs_.size(); ++p) {
      const auto [i, j] = pairs_[p];
      double sum = 0.0;
      for (const auto& y : ring_) sum += (y[i] - mean_[i]) * (y[j] - mean_[j]);
      values_[p] = sum;
    }
  }

  std::size_t dim_;
  std::size_t window_;
  std::size_t refresh_every_;
  std::size_t since_refresh_ = 0;
  std::deque<std::vector<double>> ring_;
  std::vector<double> mean_;
  std::vector<double> cross_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs_;
  std::vector<double> values_;
};

std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs_of(
    const SharingPairStore& store) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs(store.pair_count());
  store.for_pairs(0, store.pair_count(),
                  [&](std::size_t p, std::uint32_t i, std::uint32_t j,
                      std::span<const std::uint32_t>) { pairs[p] = {i, j}; });
  return pairs;
}

TEST(AccumulatorFold, EqualsTwoRankOnePassesExactly) {
  stats::Rng mesh_rng(31);
  const auto mesh = losstomo::testing::make_random_mesh(30, 10, mesh_rng);
  const linalg::SparseBinaryMatrix r0 =
      net::ReducedRoutingMatrix(mesh.topo.graph, mesh.paths).matrix();
  const std::size_t np0 = r0.rows();
  const std::size_t window = 7;
  const std::size_t refresh_every = 11;  // not a multiple of the window
  const std::size_t grow = 3;
  // A burst of paths over existing links, each sharing with early paths.
  std::vector<std::vector<std::uint32_t>> grown_rows;
  for (std::size_t k = 0; k < grow; ++k) {
    const auto row = r0.row(k);
    grown_rows.emplace_back(row.begin(), row.end());
  }

  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    linalg::SparseBinaryMatrix r = r0;
    auto store = std::make_shared<SharingPairStore>(SharingPairStore::build(r));
    const stats::StreamingMomentsOptions options{
        .window = window, .refresh_every = refresh_every, .threads = threads};
    stats::StreamingMoments dense(np0, options);
    PairMoments pairs(store, np0, options);
    TwoPassReplay replay(np0, window, refresh_every);
    replay.set_pairs(pairs_of(*store));
    std::vector<std::uint8_t> active(np0, 1);

    stats::Rng rng(97);
    const std::size_t ticks = 5 * window;
    for (std::size_t t = 0; t < ticks; ++t) {
      if (t == 9) {  // leave: filler 0.0 from the next push on
        dense.retire_path(2);
        pairs.retire_path(2);
        active[2] = 0;
      }
      if (t == 15) {
        dense.activate_path(2);
        pairs.activate_path(2);
        active[2] = 1;
      }
      if (t == 17) {  // add_paths burst with the window full
        ASSERT_EQ(dense.count(), window);
        r.append_rows(0, grown_rows);
        store->add_rows(r);
        EXPECT_EQ(dense.add_paths(grow), np0);
        EXPECT_EQ(pairs.add_paths(grow), np0);
        replay.add_paths(grow);
        replay.set_pairs(pairs_of(*store));
        active.resize(np0 + grow, 1);
      }
      std::vector<double> y(active.size());
      for (std::size_t i = 0; i < y.size(); ++i) {
        y[i] = active[i] ? rng.gaussian(-0.05, 0.2) : 0.0;
      }
      dense.push(y);
      pairs.push(y);
      replay.push(y);

      ASSERT_EQ(dense.means(), replay.means()) << "push " << t;
      ASSERT_TRUE(dense.count() < 2 || dense.view().c.data() == replay.cross())
          << "push " << t;
      const auto values = pairs.pair_values();
      ASSERT_TRUE(std::equal(values.begin(), values.end(),
                             replay.values().begin(), replay.values().end()))
          << "push " << t;
    }
    EXPECT_EQ(dense.refreshes(), ticks / refresh_every);
    EXPECT_EQ(pairs.refreshes(), ticks / refresh_every);
  }
}

}  // namespace
}  // namespace losstomo::core

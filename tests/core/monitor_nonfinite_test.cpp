// Non-finite snapshot values are rejected at the monitor boundary: a NaN
// or infinity would poison the window statistics until the next drift
// refresh (and a NaN covariance passes the drop-negative test), so
// observe()/observe_block() throw std::invalid_argument before touching any
// state.  A feed that skips the bad row continues exactly like one that
// never saw it.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "io/checkpoint.hpp"
#include "stats/rng.hpp"
#include "test_util.hpp"

namespace losstomo::core {
namespace {

std::vector<std::vector<double>> make_feed(const linalg::SparseBinaryMatrix& r,
                                           std::size_t ticks) {
  stats::Rng rng(31);
  std::vector<std::vector<double>> feed;
  for (std::size_t t = 0; t < ticks; ++t) {
    linalg::Vector x(r.cols());
    for (std::size_t k = 0; k < x.size(); ++k) {
      x[k] = rng.gaussian(-0.02, k % 3 == 0 ? 0.06 : 0.01);
    }
    const auto y = r.multiply(x);
    feed.emplace_back(y.begin(), y.end());
  }
  return feed;
}

std::vector<std::uint8_t> image(const LiaMonitor& monitor) {
  io::CheckpointWriter writer;
  monitor.save_state(writer);
  return writer.finish();
}

struct Setup {
  linalg::SparseBinaryMatrix r;
  std::vector<std::vector<double>> feed;
};

Setup make_setup() {
  stats::Rng rng(29);
  const auto mesh = losstomo::testing::make_random_mesh(40, 7, rng);
  const net::ReducedRoutingMatrix rrm(mesh.topo.graph, mesh.paths);
  return {rrm.matrix(), make_feed(rrm.matrix(), 30)};
}

const double kBadValues[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};

TEST(MonitorNonFinite, RejectedSnapshotLeavesNoTrace) {
  const auto setup = make_setup();
  const std::size_t window = 10;
  for (const std::size_t threads : {1u, 8u}) {
    MonitorOptions options{.window = window};
    options.lia.variance.threads = threads;
    LiaMonitor clean(setup.r, options);
    std::vector<linalg::Vector> clean_losses;
    for (const auto& y : setup.feed) {
      if (const auto inf = clean.observe(y)) clean_losses.push_back(inf->loss);
    }
    // Warm-up (tick 4) and steady state (tick 20).
    for (const std::size_t bad_tick : {4u, 20u}) {
      for (const double bad : kBadValues) {
        const std::string label = "threads=" + std::to_string(threads) +
                                  " tick " + std::to_string(bad_tick) +
                                  " value " + std::to_string(bad);
        LiaMonitor monitor(setup.r, options);
        std::vector<linalg::Vector> losses;
        for (std::size_t t = 0; t < setup.feed.size(); ++t) {
          if (t == bad_tick) {
            auto poisoned = setup.feed[t];
            poisoned[poisoned.size() / 2] = bad;
            EXPECT_THROW((void)monitor.observe(poisoned),
                         std::invalid_argument)
                << label;
            EXPECT_EQ(monitor.ticks(), t) << label;
          }
          if (const auto inf = monitor.observe(setup.feed[t])) {
            losses.push_back(inf->loss);
          }
        }
        EXPECT_EQ(losses, clean_losses) << label;
        EXPECT_EQ(image(monitor), image(clean)) << label;
      }
    }
  }
}

TEST(MonitorNonFinite, RejectedBlockConsumesNoRow) {
  const auto setup = make_setup();
  const std::size_t np = setup.r.rows();
  for (const std::size_t threads : {1u, 8u}) {
    MonitorOptions options{.window = 10};
    options.lia.variance.threads = threads;
    LiaMonitor monitor(setup.r, options);
    for (std::size_t t = 0; t < 12; ++t) (void)monitor.observe(setup.feed[t]);
    const auto before = image(monitor);
    // Three rows, the last one poisoned: none of them may be consumed.
    std::vector<double> block;
    for (std::size_t t = 12; t < 15; ++t) {
      block.insert(block.end(), setup.feed[t].begin(), setup.feed[t].end());
    }
    for (const double bad : kBadValues) {
      auto poisoned = block;
      poisoned[2 * np + 1] = bad;
      std::size_t fired = 0;
      EXPECT_THROW(monitor.observe_block(
                       poisoned, 3,
                       [&](std::size_t, const LossInference&) { ++fired; }),
                   std::invalid_argument);
      EXPECT_EQ(fired, 0u);
      EXPECT_EQ(monitor.ticks(), 12u);
      EXPECT_EQ(image(monitor), before);
    }
  }
}

}  // namespace
}  // namespace losstomo::core

// Mass-growth semantics of LiaMonitor::add_paths: a batched append must be
// STATE-identical (bit-parity, not just tolerance-parity) to the
// equivalent loop of one-row add_paths calls on every accumulator, the link
// universe must grow mid-run by widening G with zero rows and columns,
// and the monitor must stay in lockstep with the batch
// relearn oracle, whose windows recorded at the old width fold into a
// wider relearn — the regression pin for the pre-warm-up fold/relearn
// interaction.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "batch_oracle.hpp"
#include "core/monitor.hpp"
#include "linalg/matrix.hpp"
#include "stats/rng.hpp"

namespace losstomo::core {
namespace {

MonitorOptions growth_options(CovarianceAccumulator accumulator =
                                  CovarianceAccumulator::kDense,
                              std::size_t window = 8) {
  MonitorOptions options;
  options.window = window;
  options.accumulator = accumulator;
  options.lia.variance.negatives = NegativeCovariancePolicy::kDrop;
  // Tiny instances degrade through deterministic rank-revealing pinning
  // on singular windows (see monitor_churn_test for the rationale).
  options.lia.variance.rank_revealing_min_attempts = 1;
  return options;
}

// Star universe: link 0 shared, links 1..4 per-path.
linalg::SparseBinaryMatrix growth_universe() {
  return linalg::SparseBinaryMatrix(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
}

std::vector<double> synthetic_snapshot(const linalg::SparseBinaryMatrix& r,
                                       stats::Rng& rng) {
  linalg::Vector x(r.cols());
  for (std::size_t k = 0; k < x.size(); ++k) {
    x[k] = rng.gaussian(-0.05, 0.1 + 0.015 * static_cast<double>(k));
  }
  const auto y = r.multiply(x);
  return {y.begin(), y.end()};
}

// The grown universe every growth test converges to: three appended rows,
// two of them over fresh links 5 and 6.
linalg::SparseBinaryMatrix grown_universe() {
  return linalg::SparseBinaryMatrix(
      7, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 1, 4}, {0, 5}, {0, 5, 6}});
}

const std::vector<std::vector<std::uint32_t>>& grown_rows() {
  static const std::vector<std::vector<std::uint32_t>> rows{
      {0, 1, 4}, {0, 5}, {0, 5, 6}};
  return rows;
}

// Drives one monitor through 36 ticks with the growth burst at tick
// `grow_tick`, batched or row-by-row, and returns every inference.  An
// `oracle` (optional) follows the monitor through the same feed and
// records its inferences in `oracle_out`.
std::vector<std::optional<LossInference>> drive(
    LiaMonitor& monitor, bool batched, std::size_t grow_tick,
    losstomo::testing::BatchRelearnOracle* oracle = nullptr,
    std::vector<std::optional<LossInference>>* oracle_out = nullptr) {
  const auto grown = grown_universe();
  stats::Rng rng(17);
  std::vector<std::optional<LossInference>> out;
  for (std::size_t l = 0; l < 36; ++l) {
    if (l == grow_tick) {
      if (batched) {
        EXPECT_EQ(monitor.add_paths(grown_rows(), 2), 4u);
      } else {
        // Row-by-row: the fresh links ride the rows that introduce them.
        EXPECT_EQ(monitor.add_paths({grown_rows()[0]}, 0), 4u);
        EXPECT_EQ(monitor.add_paths({grown_rows()[1]}, 1), 5u);
        EXPECT_EQ(monitor.add_paths({grown_rows()[2]}, 1), 6u);
      }
    }
    // One shared deterministic feed: draw over the grown universe link
    // space always, project to the rows the monitor currently knows.
    const auto y_full = synthetic_snapshot(grown, rng);
    const std::vector<double> y(y_full.begin(),
                                y_full.begin() + monitor.routing().rows());
    out.push_back(monitor.observe(y));
    if (oracle != nullptr) oracle_out->push_back(oracle->observe(monitor, y));
  }
  return out;
}

void expect_identical(
    const std::vector<std::optional<LossInference>>& a,
    const std::vector<std::optional<LossInference>>& b,
    const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  std::size_t compared = 0;
  for (std::size_t l = 0; l < a.size(); ++l) {
    ASSERT_EQ(a[l].has_value(), b[l].has_value()) << label << " tick " << l;
    if (!a[l]) continue;
    ++compared;
    EXPECT_EQ(linalg::max_abs_diff(a[l]->loss, b[l]->loss), 0.0)
        << label << " tick " << l;
  }
  EXPECT_GT(compared, 10u) << label;
}

TEST(MonitorGrowth, BatchedAddPathsIsBitIdenticalToRowByRow) {
  struct Config {
    const char* label;
    CovarianceAccumulator accumulator;
  };
  const Config configs[] = {
      {"streaming/dense", CovarianceAccumulator::kDense},
      {"streaming/pairs", CovarianceAccumulator::kSharingPairs},
  };
  // Growth both after warm-up (tick 20) and before it (tick 3): the
  // pre-warm-up case folds window snapshots recorded at the old width
  // into the first wider relearn.
  for (const std::size_t grow_tick : {20u, 3u}) {
    for (const auto& config : configs) {
      LiaMonitor batched(growth_universe(),
                         growth_options(config.accumulator));
      LiaMonitor row_by_row(growth_universe(),
                            growth_options(config.accumulator));
      const auto a = drive(batched, true, grow_tick);
      const auto b = drive(row_by_row, false, grow_tick);
      expect_identical(a, b, std::string(config.label) + "/grow@" +
                                 std::to_string(grow_tick));
      const auto& ea = batched.streaming_equations();
      const auto& eb = row_by_row.streaming_equations();
      EXPECT_EQ(ea.links_grown(), 2u);
      EXPECT_EQ(eb.links_grown(), 2u);
      EXPECT_EQ(ea.refactorizations(), eb.refactorizations());
      EXPECT_EQ(ea.links_pinned(), eb.links_pinned());
    }
  }
}

// The batch relearn oracle is the reference for the streaming growth
// machinery: zero-widened nc growth + warm-up gating must match a
// from-scratch relearn over the live-and-warm submatrix at every tick.
// This is also the regression pin for the oracle's own growth path —
// relearns read window snapshots recorded at the PRE-growth width
// (shorter vectors) while the routing matrix is already wider.
TEST(MonitorGrowth, StreamingMatchesBatchThroughLinkGrowth) {
  for (const std::size_t grow_tick : {20u, 3u}) {
    LiaMonitor streaming(growth_universe(), growth_options());
    losstomo::testing::BatchRelearnOracle batch(growth_universe(),
                                                growth_options());
    std::vector<std::optional<LossInference>> b;
    const auto a = drive(streaming, true, grow_tick, &batch, &b);
    ASSERT_EQ(a.size(), b.size());
    std::size_t compared = 0;
    for (std::size_t l = 0; l < a.size(); ++l) {
      ASSERT_EQ(a[l].has_value(), b[l].has_value()) << "tick " << l;
      if (!a[l]) continue;
      ++compared;
      EXPECT_LE(linalg::max_abs_diff(a[l]->loss, b[l]->loss), 1e-10)
          << "grow@" << grow_tick << " tick " << l;
    }
    EXPECT_GT(compared, 10u);
    // The final estimate spans the grown 7-link universe.
    EXPECT_EQ(streaming.variances().v.size(), 7u);
    const auto& eqs = streaming.streaming_equations();
    // One factorization per relearn.
    EXPECT_EQ(eqs.refactorizations(), compared) << "grow@" << grow_tick;
    EXPECT_EQ(eqs.links_grown(), 2u);
  }
}

TEST(MonitorGrowth, ErrorPaths) {
  LiaMonitor monitor(growth_universe(), growth_options());
  // Empty batch.
  EXPECT_THROW(monitor.add_paths({}), std::invalid_argument);
  // Row referencing a column beyond cols() + new_links.
  EXPECT_THROW(monitor.add_paths({{0, 6}}, 1), std::invalid_argument);
  EXPECT_THROW(monitor.add_paths({{0, 5}}, 0), std::invalid_argument);
  // Failed appends leave the monitor unchanged (no half-grown state).
  EXPECT_EQ(monitor.routing().rows(), 4u);
  EXPECT_EQ(monitor.routing().cols(), 5u);
  // Growth requires the drop-negative policy.
  MonitorOptions keep = growth_options();
  keep.lia.variance.negatives = NegativeCovariancePolicy::kKeep;
  LiaMonitor keep_all(growth_universe(), keep);
  EXPECT_THROW(keep_all.add_paths({{0, 1}}), std::logic_error);
}

}  // namespace
}  // namespace losstomo::core

// The monitor builds the Phase-2 co-traversal Gram N = R^T R of its active
// rows once per routing epoch (at the first relearn after a churn event or
// a restore) and reuses it on every other relearn.  These tests pin the
// cache to a from-scratch CoTraversalGram of the active rows, compared with
// ==, after every diagnosing tick of every shipped scenario (every churn
// event forces a relearn at the next diagnosing tick, so every event is
// covered) and right after a checkpoint restore.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "io/checkpoint.hpp"
#include "io/scenario_io.hpp"
#include "linalg/sparse.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "test_util.hpp"

namespace losstomo::scenario {
namespace {

// N of the monitor's currently active rows, built from scratch.
linalg::CoTraversalGram fresh_gram(const core::LiaMonitor& monitor) {
  const auto& r = monitor.routing();
  std::vector<std::vector<std::uint32_t>> rows;
  for (std::size_t i = 0; i < r.rows(); ++i) {
    if (!monitor.path_active(i)) continue;
    const auto row = r.row(i);
    rows.emplace_back(row.begin(), row.end());
  }
  return linalg::CoTraversalGram(
      linalg::SparseBinaryMatrix(r.cols(), std::move(rows)));
}

void expect_same_gram(const linalg::CoTraversalGram& cached,
                      const linalg::CoTraversalGram& fresh,
                      const std::string& label) {
  ASSERT_EQ(cached.dim(), fresh.dim()) << label;
  ASSERT_EQ(cached.nnz(), fresh.nnz()) << label;
  for (std::size_t k = 0; k < fresh.dim(); ++k) {
    const auto cached_cols = cached.row_cols(k);
    const auto fresh_cols = fresh.row_cols(k);
    const auto cached_values = cached.row_values(k);
    const auto fresh_values = fresh.row_values(k);
    ASSERT_TRUE(std::equal(cached_cols.begin(), cached_cols.end(),
                           fresh_cols.begin(), fresh_cols.end()))
        << label << " row " << k;
    ASSERT_TRUE(std::equal(cached_values.begin(), cached_values.end(),
                           fresh_values.begin(), fresh_values.end()))
        << label << " row " << k;
  }
}

std::vector<std::uint8_t> runner_image(const ScenarioRunner& runner) {
  io::CheckpointWriter writer;
  runner.save_state(writer);
  return writer.finish();
}

constexpr const char* kShipped[] = {"failover",        "flapping_mesh",
                                    "growing_overlay", "mass_growth",
                                    "regime_shift",    "stable_tree"};

// Loads a shipped script, pointing its checkpoint events at a scratch file.
ScenarioSpec shipped(const std::string& name, const std::string& file) {
  auto spec = io::load_scenario(std::string(LOSSTOMO_SOURCE_DIR) +
                                "/scenarios/" + name + ".scn");
  for (auto& event : spec.events) {
    if (!event.file.empty()) event.file = file;
  }
  return spec;
}

TEST(MonitorGramParity, CachedGramEqualsFreshAfterEveryChurnEvent) {
  for (const std::string name : kShipped) {
    const std::string file =
        losstomo::testing::scratch_file(name + "_gram.ckpt");
    const auto spec = shipped(name, file);
    ScenarioRunner runner(spec);
    EXPECT_THROW((void)runner.monitor().active_gram(), std::logic_error)
        << name;
    std::size_t diagnosed = 0;
    std::size_t event_ticks = 0;  // diagnosing ticks after a churn event
    bool events_pending = false;
    while (runner.ticks_run() < spec.ticks) {
      const std::size_t before = runner.events_applied();
      const bool diagnosis = runner.step().has_value();
      events_pending = events_pending || runner.events_applied() != before;
      if (!diagnosis) continue;
      ++diagnosed;
      if (events_pending) ++event_ticks;
      events_pending = false;
      expect_same_gram(runner.monitor().active_gram(),
                       fresh_gram(runner.monitor()),
                       name + " tick " + std::to_string(runner.ticks_run()));
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_GT(diagnosed, 0u) << name;
    if (!spec.events.empty()) {
      EXPECT_GT(event_ticks, 0u) << name;
    }
    std::remove(file.c_str());
  }
}

TEST(MonitorGramParity, RestoreRebuildsTheCachedGram) {
  // Killed at mid-run (in the churn scripts, after events have moved the
  // active set off the initial one): the restored monitor's N equals a
  // fresh one before its first tick, and the uninterrupted run's to the
  // end.
  for (const std::string name : kShipped) {
    const std::string file =
        losstomo::testing::scratch_file(name + "_gram_restore.ckpt");
    const auto spec = shipped(name, file);
    ScenarioRunner uninterrupted(spec);
    while (uninterrupted.ticks_run() < spec.ticks / 2) {
      (void)uninterrupted.step();
    }
    auto reader = io::CheckpointReader::from_bytes(runner_image(uninterrupted));
    ScenarioRunner resumed(spec);
    resumed.restore_state(reader);
    expect_same_gram(resumed.monitor().active_gram(),
                     fresh_gram(resumed.monitor()), name + " restored");
    expect_same_gram(resumed.monitor().active_gram(),
                     uninterrupted.monitor().active_gram(),
                     name + " restored vs uninterrupted");
    while (uninterrupted.ticks_run() < spec.ticks) {
      const bool a = uninterrupted.step().has_value();
      const bool b = resumed.step().has_value();
      ASSERT_EQ(a, b) << name;
      if (!a) continue;
      expect_same_gram(resumed.monitor().active_gram(),
                       uninterrupted.monitor().active_gram(),
                       name + " tick " + std::to_string(resumed.ticks_run()));
      if (::testing::Test::HasFatalFailure()) return;
    }
    std::remove(file.c_str());
  }
}

}  // namespace
}  // namespace losstomo::scenario

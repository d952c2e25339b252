// LiaMonitor against a call-for-call rebuild of its tick from the public
// layer functions (the way perfbench/src/traced.cpp times it): the
// accumulator the policy picks (stats::SnapshotRing under keep-all, the
// dense stats::StreamingMoments under drop-negative),
// core::StreamingNormalEquations, then
// Lia::adopt / Lia::infer while no path has churned and
// eliminate_low_variance_links / infer_snapshot_losses on the active-row
// submatrix from the first churn on.  The monitor runs one Phase-1/Phase-2
// path for both regimes, so every inference must be bit-identical to the
// rebuild's and the factorization and link counters equal.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/lia.hpp"
#include "core/monitor.hpp"
#include "io/checkpoint.hpp"
#include "stats/rng.hpp"
#include "stats/streaming.hpp"
#include "test_util.hpp"

namespace losstomo::core {
namespace {

class LayerRebuild {
 public:
  LayerRebuild(const linalg::SparseBinaryMatrix& r,
               const MonitorOptions& options)
      : options_(options),
        r_(r),
        lia_(r_, options_.lia),
        acc_(make_accumulator(r_.rows(), options_)),
        equations_(r_, options_.lia.variance),
        active_(r_.rows(), 1) {}

  void set_path_active(std::size_t path, bool active) {
    if ((active_[path] != 0) == active) return;
    churn_ = true;
    active_[path] = active ? 1 : 0;
    equations_.set_path_live(path, active);
    if (active) {
      acc_->activate_path(path);
    } else {
      acc_->retire_path(path);
    }
  }

  void add_paths(const std::vector<std::vector<std::uint32_t>>& rows) {
    r_.append_rows(0, rows);
    churn_ = true;
    active_.resize(r_.rows(), 1);
    equations_.grow_links(0);
    equations_.add_paths(r_, rows.size());
    acc_->add_paths(rows.size());
  }

  std::optional<LossInference> observe(std::span<const double> y) {
    std::optional<LossInference> result;
    if (acc_->count() == options_.window) {
      equations_.refresh(*acc_);
      VarianceEstimate estimate = equations_.solve();
      if (!churn_) {
        lia_.adopt(std::move(estimate));
        result = lia_.infer(y);
      } else {
        std::vector<std::vector<std::uint32_t>> rows;
        linalg::Vector y_active;
        for (std::size_t i = 0; i < r_.rows(); ++i) {
          if (active_[i] == 0) continue;
          const auto row = r_.row(i);
          rows.emplace_back(row.begin(), row.end());
          y_active.push_back(y[i]);
        }
        const linalg::SparseBinaryMatrix active_r(r_.cols(), std::move(rows));
        const auto elimination = eliminate_low_variance_links(
            active_r, estimate.v, options_.lia.elimination);
        result = infer_snapshot_losses(active_r, elimination, y_active);
      }
    }
    acc_->push(y);
    return result;
  }

  [[nodiscard]] const StreamingNormalEquations& equations() const {
    return equations_;
  }

 private:
  static std::unique_ptr<stats::WindowAccumulator> make_accumulator(
      std::size_t paths, const MonitorOptions& options) {
    const stats::StreamingMomentsOptions window{
        .window = options.window,
        .refresh_every = options.refresh_every,
        .threads = options.lia.variance.threads};
    if (options.lia.variance.negatives == NegativeCovariancePolicy::kKeep) {
      return std::make_unique<stats::SnapshotRing>(paths, window);
    }
    return std::make_unique<stats::StreamingMoments>(paths, window);
  }

  MonitorOptions options_;
  linalg::SparseBinaryMatrix r_;
  Lia lia_;
  std::unique_ptr<stats::WindowAccumulator> acc_;
  StreamingNormalEquations equations_;
  std::vector<std::uint8_t> active_;
  bool churn_ = false;
};

struct Instance {
  linalg::SparseBinaryMatrix r;
  linalg::Vector sigma;  // per-link standard deviation of the log loss
};

Instance make_instance() {
  stats::Rng rng(91);
  const auto mesh = losstomo::testing::make_random_mesh(60, 9, rng);
  const net::ReducedRoutingMatrix rrm(mesh.topo.graph, mesh.paths);
  Instance instance{rrm.matrix(), linalg::Vector(rrm.link_count())};
  for (auto& s : instance.sigma) s = rng.bernoulli(0.3) ? 0.08 : 0.01;
  return instance;
}

// One snapshot over `r`, with a 0.0 filler for inactive paths.
std::vector<double> snapshot(const linalg::SparseBinaryMatrix& r,
                             const linalg::Vector& sigma, stats::Rng& rng,
                             const LiaMonitor& monitor) {
  linalg::Vector x(r.cols());
  for (std::size_t k = 0; k < x.size(); ++k) {
    x[k] = rng.gaussian(-0.01, sigma[k]);
  }
  auto y = r.multiply(x);
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (!monitor.path_active(i)) y[i] = 0.0;
  }
  return {y.begin(), y.end()};
}

// A burst of new paths over existing links: each drops the last link of
// an existing path, so every row is a distinct route.
std::vector<std::vector<std::uint32_t>> growth_burst(
    const linalg::SparseBinaryMatrix& r) {
  std::vector<std::vector<std::uint32_t>> rows;
  for (std::size_t i = 0; rows.size() < 4 && i < r.rows(); ++i) {
    const auto row = r.row(i);
    if (row.size() < 2) continue;
    rows.emplace_back(row.begin(), row.end() - 1);
  }
  return rows;
}

// Churn script: leave/join flaps and one add_paths burst.
void apply_churn(std::size_t tick, LiaMonitor& monitor, LayerRebuild* rebuild) {
  const auto flip = [&](std::size_t path, bool active) {
    monitor.set_path_active(path, active);
    if (rebuild != nullptr) rebuild->set_path_active(path, active);
  };
  if (tick == 20) {
    flip(3, false);
    flip(7, false);
  }
  if (tick == 26) flip(3, true);
  if (tick == 30) {
    const auto rows = growth_burst(monitor.routing());
    monitor.add_paths(rows);
    if (rebuild != nullptr) rebuild->add_paths(rows);
  }
  if (tick == 40) flip(5, false);
  if (tick == 45) flip(7, true);
}

MonitorOptions options_for(NegativeCovariancePolicy policy,
                           std::size_t threads) {
  MonitorOptions options;
  options.window = 12;
  options.lia.variance.negatives = policy;
  options.lia.variance.threads = threads;
  return options;
}

void expect_same_counters(const StreamingNormalEquations& a,
                          const StreamingNormalEquations& b,
                          const std::string& label) {
  EXPECT_EQ(a.refactorizations(), b.refactorizations()) << label;
  EXPECT_EQ(a.links_grown(), b.links_grown()) << label;
  EXPECT_EQ(a.links_pinned(), b.links_pinned()) << label;
}

void run_parity(NegativeCovariancePolicy policy, bool churn) {
  const auto instance = make_instance();
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const std::string label = "threads=" + std::to_string(threads);
    const auto options = options_for(policy, threads);
    LiaMonitor monitor(instance.r, options);
    LayerRebuild rebuild(instance.r, options);
    stats::Rng rng(7);
    linalg::SparseBinaryMatrix r = instance.r;
    std::size_t compared = 0;
    for (std::size_t tick = 0; tick < 60; ++tick) {
      if (churn) {
        apply_churn(tick, monitor, &rebuild);
        r = monitor.routing();
      }
      const auto y = snapshot(r, instance.sigma, rng, monitor);
      const auto from_monitor = monitor.observe(y);
      const auto from_layers = rebuild.observe(y);
      ASSERT_EQ(from_monitor.has_value(), from_layers.has_value())
          << label << " tick " << tick;
      if (!from_monitor) continue;
      ++compared;
      ASSERT_EQ(from_monitor->loss.size(), from_layers->loss.size()) << label;
      EXPECT_EQ(linalg::max_abs_diff(from_monitor->loss, from_layers->loss),
                0.0)
          << label << " tick " << tick;
    }
    EXPECT_EQ(compared, 60u - options.window) << label;
    const auto& eqs = monitor.streaming_equations();
    expect_same_counters(eqs, rebuild.equations(), label);
    // Keep-all factors its fixed G once; drop-negative once per relearn.
    EXPECT_EQ(eqs.refactorizations(), eqs.drop_negative() ? compared : 1u)
        << label;
    if (churn) {
      EXPECT_LT(monitor.active_path_count(), monitor.routing().rows()) << label;
    }
  }
}

TEST(MonitorLayerParity, KeepAllUnchurned) {
  run_parity(NegativeCovariancePolicy::kKeep, /*churn=*/false);
}

TEST(MonitorLayerParity, DropNegativeUnchurned) {
  run_parity(NegativeCovariancePolicy::kDrop, /*churn=*/false);
}

TEST(MonitorLayerParity, DropNegativeThroughLeaveJoinAndGrowth) {
  run_parity(NegativeCovariancePolicy::kDrop, /*churn=*/true);
}

std::vector<std::uint8_t> image(const LiaMonitor& monitor) {
  io::CheckpointWriter writer;
  monitor.save_state(writer);
  return writer.finish();
}

// The estimate learned before any churn crosses a checkpoint, and the
// restored monitor then takes the first churn: it continues exactly as the
// uninterrupted one.
TEST(MonitorLayerParity, CheckpointBeforeFirstChurnContinuesBitIdentically) {
  const auto instance = make_instance();
  const auto options =
      options_for(NegativeCovariancePolicy::kDrop, /*threads=*/2);
  LiaMonitor uninterrupted(instance.r, options);
  std::optional<LiaMonitor> resumed(std::in_place, instance.r, options);
  stats::Rng rng(8);
  linalg::SparseBinaryMatrix r = instance.r;
  std::size_t compared = 0;
  for (std::size_t tick = 0; tick < 60; ++tick) {
    if (tick == 19) {
      // Kill after tick 18 (diagnosing, unchurned) and restore into a
      // freshly constructed monitor.
      auto bytes = image(*resumed);
      resumed.emplace(instance.r, options);
      auto reader = io::CheckpointReader::from_bytes(std::move(bytes));
      resumed->restore_state(reader);
    }
    apply_churn(tick, uninterrupted, nullptr);
    apply_churn(tick, *resumed, nullptr);
    r = uninterrupted.routing();
    const auto y = snapshot(r, instance.sigma, rng, uninterrupted);
    const auto a = uninterrupted.observe(y);
    const auto b = resumed->observe(y);
    ASSERT_EQ(a.has_value(), b.has_value()) << "tick " << tick;
    if (!a) continue;
    ++compared;
    EXPECT_EQ(a->loss, b->loss) << "tick " << tick;
  }
  EXPECT_EQ(compared, 48u);
  EXPECT_EQ(image(uninterrupted), image(*resumed));
  expect_same_counters(uninterrupted.streaming_equations(),
                       resumed->streaming_equations(), "resumed");
}

}  // namespace
}  // namespace losstomo::core

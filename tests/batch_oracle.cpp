#include "batch_oracle.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "io/binary_trace.hpp"
#include "scenario/runner.hpp"
#include "stats/moments.hpp"

namespace losstomo::testing {

namespace {

// The monitor's construction-time policy freeze.
core::MonitorOptions freeze_policy(core::MonitorOptions options,
                                   const linalg::SparseBinaryMatrix& r) {
  options.lia.variance.negatives =
      core::resolve_negative_policy(options.lia.variance, r.rows())
          ? core::NegativeCovariancePolicy::kDrop
          : core::NegativeCovariancePolicy::kKeep;
  return options;
}

}  // namespace

BatchRelearnOracle::BatchRelearnOracle(linalg::SparseBinaryMatrix r,
                                       core::MonitorOptions options)
    : options_(freeze_policy(std::move(options), r)),
      r_(std::move(r)),
      lia_(r_, options_.lia) {
  active_.assign(r_.rows(), 1);
  activated_tick_.assign(r_.rows(), 0);
}

const core::VarianceEstimate& BatchRelearnOracle::variances() const {
  if (churn_ && churn_variance_) return *churn_variance_;
  return lia_.variances();
}

void BatchRelearnOracle::note_churn() {
  churn_ = true;
  active_dirty_ = true;
  since_learn_ = options_.relearn_every;
}

void BatchRelearnOracle::mirror_churn(const core::LiaMonitor& monitor) {
  const auto& routing = monitor.routing();
  const std::size_t known = r_.rows();
  if (routing.rows() > known) {
    std::vector<std::vector<std::uint32_t>> rows;
    for (std::size_t i = known; i < routing.rows(); ++i) {
      const auto row = routing.row(i);
      rows.emplace_back(row.begin(), row.end());
    }
    r_.append_rows(routing.cols() - r_.cols(), std::move(rows));
    active_.resize(r_.rows(), 1);
    activated_tick_.resize(r_.rows(), ticks_);
    note_churn();
  }
  for (std::size_t i = 0; i < r_.rows(); ++i) {
    const bool active = monitor.path_active(i);
    if ((active_[i] != 0) == active) continue;
    active_[i] = active ? 1 : 0;
    if (active) activated_tick_[i] = ticks_;
    note_churn();
  }
}

bool BatchRelearnOracle::path_full(std::size_t i) const {
  if (!active_[i]) return false;
  const std::size_t fill = window_.size();
  // Snapshots pushed so far = ticks_ - 1 inside a relearn (the current
  // snapshot enters the window after diagnosis).
  return fill > 0 && ticks_ - 1 - activated_tick_[i] >= fill;
}

void BatchRelearnOracle::rebuild_active() {
  if (!active_dirty_ && active_r_) return;
  active_rows_.clear();
  std::vector<std::vector<std::uint32_t>> rows;
  for (std::size_t i = 0; i < r_.rows(); ++i) {
    if (!active_[i]) continue;
    active_rows_.push_back(static_cast<std::uint32_t>(i));
    const auto row = r_.row(i);
    rows.emplace_back(row.begin(), row.end());
  }
  active_r_.emplace(r_.cols(), std::move(rows));
  active_dirty_ = false;
}

void BatchRelearnOracle::relearn() {
  stats::SnapshotMatrix history(r_.rows(), options_.window);
  for (std::size_t l = 0; l < options_.window; ++l) {
    const auto& y = window_[l];
    std::copy(y.begin(), y.end(), history.sample(l).begin());
  }
  lia_.learn(history);
}

void BatchRelearnOracle::relearn_churn() {
  rebuild_active();
  // Estimate from the active paths whose window entries are all real
  // measurements.  Window snapshots recorded before a growth are shorter
  // than r_.rows(), but a full path is older than all of them.
  std::vector<std::uint32_t> full_rows;
  std::vector<std::vector<std::uint32_t>> rows;
  for (std::size_t i = 0; i < r_.rows(); ++i) {
    if (!path_full(i)) continue;
    full_rows.push_back(static_cast<std::uint32_t>(i));
    const auto row = r_.row(i);
    rows.emplace_back(row.begin(), row.end());
  }
  if (full_rows.size() < 2) {
    // Not enough learned history to estimate anything yet.
    churn_variance_.reset();
    churn_elimination_.reset();
    return;
  }
  const linalg::SparseBinaryMatrix sub(r_.cols(), std::move(rows));
  stats::SnapshotMatrix history(full_rows.size(), options_.window);
  for (std::size_t l = 0; l < options_.window; ++l) {
    const auto& y = window_[l];
    for (std::size_t idx = 0; idx < full_rows.size(); ++idx) {
      history.at(l, idx) = y[full_rows[idx]];
    }
  }
  churn_variance_ =
      core::estimate_link_variances(sub, history, options_.lia.variance);
  churn_elimination_ = core::eliminate_low_variance_links(
      *active_r_, churn_variance_->v, options_.lia.elimination);
}

std::optional<core::LossInference> BatchRelearnOracle::observe(
    const core::LiaMonitor& monitor, std::span<const double> y) {
  mirror_churn(monitor);
  return observe(y);
}

std::optional<core::LossInference> BatchRelearnOracle::observe(
    std::span<const double> y) {
  if (y.size() != r_.rows()) throw std::invalid_argument("snapshot size");
  ++ticks_;
  std::optional<core::LossInference> result;
  if (window_.size() == options_.window) {
    // Window full: (re)learn if due, then diagnose this snapshot using the
    // PRECEDING window only.
    if (churn_) {
      if (!churn_variance_ || ++since_learn_ >= options_.relearn_every) {
        relearn_churn();
        since_learn_ = 0;
      }
      if (churn_variance_ && churn_elimination_) {
        linalg::Vector y_active(active_rows_.size());
        for (std::size_t idx = 0; idx < active_rows_.size(); ++idx) {
          y_active[idx] = y[active_rows_[idx]];
        }
        result = core::infer_snapshot_losses(*active_r_, *churn_elimination_,
                                             y_active);
      }
    } else {
      if (!lia_.trained() || ++since_learn_ >= options_.relearn_every) {
        relearn();
        since_learn_ = 0;
      }
      result = lia_.infer(y);
    }
  }
  window_.emplace_back(y.begin(), y.end());
  if (window_.size() > options_.window) window_.pop_front();
  return result;
}

OracleRun oracle_scenario_run(const scenario::ScenarioSpec& spec,
                              const std::string& trace_file) {
  {
    scenario::ScenarioRunner recorder(spec);
    recorder.record_trace(trace_file);
    (void)recorder.run();
  }
  const auto feed = io::BinaryTraceReader::open(trace_file);
  // The replaying runner applies the same events, so its monitor's
  // routing and activity are what the oracle mirrors.
  scenario::ScenarioRunner runner(spec);
  runner.replay_trace(trace_file);
  core::MonitorOptions options;
  options.window = spec.window;
  options.lia.variance.negatives = core::NegativeCovariancePolicy::kDrop;
  BatchRelearnOracle oracle(runner.monitor().routing(), options);
  OracleRun run;
  while (runner.ticks_run() < spec.ticks) {
    const std::size_t tick = runner.ticks_run();
    (void)runner.step();
    const auto y = feed.row(tick).first(runner.monitor().routing().rows());
    run.inferences.push_back(oracle.observe(runner.monitor(), y));
    run.variances.push_back(run.inferences.back().has_value()
                                ? oracle.variances().v
                                : linalg::Vector());
  }
  return run;
}

}  // namespace losstomo::testing

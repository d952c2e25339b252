// BatchRelearnOracle — the paper's monitoring procedure rerun from scratch
// every relearn, the reference the streaming core::LiaMonitor is pinned
// against.
//
// The oracle keeps the last m snapshots verbatim and, whenever a relearn
// is due, re-estimates the link variances from that materialised window:
//  * the negative-covariance policy is frozen at construction on the
//    initial path count, exactly as the monitor freezes it;
//  * until the first churn it runs Lia::learn over the whole window and
//    Lia::infer on the newest snapshot (Phase 1 on the m preceding
//    snapshots, Phase 2 on snapshot m+1);
//  * from the first churn on, Phase 1 runs on the active paths whose
//    window entries are all real measurements (activated at least a full
//    window ago), with no inference while fewer than 2 such paths exist,
//    and Phase 2 on the active-row submatrix;
//  * relearns follow MonitorOptions::relearn_every, and any churn forces
//    one at the next diagnosing tick.
// Every snapshot enters the window, also between relearns.
//
// Churn is not applied to the oracle directly: observe(monitor, y) diffs
// the monitor's public routing() / path_active() against the oracle's
// copy and replays the net change — appended rows (and the fresh links
// they reference) and activity flips — as if it had happened just before
// this observe.  Precondition: no path leaves and rejoins (or joins and
// leaves) between two observes; the diff sees only the net change, so
// such a round trip would go unnoticed.
//
// oracle_scenario_run drives the oracle through a scripted scenario: it
// records the monitor feed of one ScenarioRunner pass as a binary trace,
// replays it through a second runner, and lets the oracle follow that
// runner's monitor tick by tick.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/lia.hpp"
#include "core/monitor.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "scenario/spec.hpp"

namespace losstomo::testing {

class BatchRelearnOracle {
 public:
  /// `r` and `options` are the monitor's construction-time routing matrix
  /// and options (the accumulator/refresh knobs are ignored).
  BatchRelearnOracle(linalg::SparseBinaryMatrix r, core::MonitorOptions options);

  /// Replays the churn `monitor` saw since the previous observe, then
  /// observes `y` (see the header comment for the precondition).
  std::optional<core::LossInference> observe(const core::LiaMonitor& monitor,
                                             std::span<const double> y);
  /// Observes `y` on a feed without churn.  Returns the inference, or
  /// std::nullopt while the window is still filling.
  std::optional<core::LossInference> observe(std::span<const double> y);

  /// Variances from the most recent learn.
  [[nodiscard]] const core::VarianceEstimate& variances() const;

 private:
  void mirror_churn(const core::LiaMonitor& monitor);
  void note_churn();
  void relearn();
  void relearn_churn();
  void rebuild_active();
  /// Path i is active and its window entries are all real measurements.
  [[nodiscard]] bool path_full(std::size_t i) const;

  core::MonitorOptions options_;
  linalg::SparseBinaryMatrix r_;
  core::Lia lia_;
  std::deque<linalg::Vector> window_;
  bool churn_ = false;
  std::vector<std::uint8_t> active_;
  std::vector<std::size_t> activated_tick_;  // ticks_ at last activation
  bool active_dirty_ = true;
  std::vector<std::uint32_t> active_rows_;
  std::optional<linalg::SparseBinaryMatrix> active_r_;
  std::optional<core::VarianceEstimate> churn_variance_;
  std::optional<core::Elimination> churn_elimination_;
  std::size_t ticks_ = 0;
  std::size_t since_learn_ = 0;
};

/// The oracle's output at every tick of a scenario.
struct OracleRun {
  std::vector<std::optional<core::LossInference>> inferences;
  /// variances().v on diagnosing ticks, empty otherwise.
  std::vector<linalg::Vector> variances;
};

/// Runs the oracle over `spec` with the monitor options a default
/// ScenarioRunner resolves (window from the spec, drop-negative).
/// `trace_file` is scratch space for the recorded feed.
OracleRun oracle_scenario_run(const scenario::ScenarioSpec& spec,
                              const std::string& trace_file);

}  // namespace losstomo::testing

// The two measured runs of one workload.
//
// run_untraced drives a core::LiaMonitor the way a deployment does — each
// tick pumps one trace row through io::BinaryTraceSource -> io::LogTransform
// -> io::MonitorSink — and yields every end-to-end metric.  run_traced
// rebuilds the same streaming tick from the layers' public functions and
// times each call from here, without touching the library.  Both feed the
// correctness gate.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Failed operations against the snapshots attempted.
struct Gate {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Counts a failure (and reports `what` on stderr) when !ok.
  void check(bool ok, const std::string& what);
};

struct UntracedResult {
  std::vector<double> setup_s;  // one per set-up repeat
  std::vector<double> tick_s;   // one per steady tick
  double steady_s = 0.0;        // wall time of the steady run
  std::vector<losstomo::linalg::Vector> loss;  // steady inferences
  double peak_rss_mb = 0.0;  // after the first segment's steady run
  std::vector<double> save_s;     // one per checkpoint repeat
  std::vector<double> restore_s;  // one per checkpoint repeat
  std::size_t checkpoint_bytes = 0;  // the first segment's image
  double detection_rate = 0.0;
  double false_positive_rate = 0.0;
};

/// Per segment: sets a monitor up `setups` times (the last one runs on),
/// measures its steady run, then saves and restores that monitor
/// `checkpoint_reps` times (0 skips the checkpoint and its continuation
/// check).  The peak RSS is taken after the first segment's steady run.
/// Per-tick and per-repeat vectors hold the segments back to back.
UntracedResult run_untraced(const Inputs& inputs, std::size_t setups,
                            std::size_t checkpoint_reps, Gate& gate);

enum Layer : std::size_t {
  kIo,
  kAccumulate,
  kRefresh,
  kSolve,
  kEliminate,
  kInfer,
  kChurn,
  kLayerCount,
};

/// Per-tick vectors hold the segments back to back; counts are summed over
/// the segments' steady runs.
struct TracedResult {
  std::vector<std::array<double, kLayerCount>> layer_s;  // per steady tick
  std::vector<double> tick_s;
  std::vector<losstomo::linalg::Vector> loss;
  std::size_t drift_refreshes = 0;
  std::vector<double> drift_push_s;  // pushes that ran a drift refresh
  // Per diagnosing tick.
  std::vector<double> pending_flips;
  std::vector<double> equations_dropped;
  std::vector<double> kept;
  std::size_t kept_unchanged = 0;
  std::size_t kept_compared = 0;
  // Factor-cache counters over the steady run.
  std::size_t pcg_iterations = 0;
  std::size_t refactorizations = 0;
  std::size_t rank1_updates = 0;
  std::size_t downdate_fallbacks = 0;
  // Churn layer.
  std::size_t churn_events = 0;
  std::vector<double> set_path_active_s;
  std::vector<double> add_paths_s;
  std::vector<double> event_tick_s;
};

TracedResult run_traced(const Inputs& inputs);

}  // namespace perfbench

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/lia.hpp"
#include "core/metrics.hpp"
#include "core/monitor.hpp"
#include "feed.hpp"
#include "io/checkpoint.hpp"
#include "io/pipeline.hpp"
#include "runs.hpp"
#include "util/timer.hpp"

namespace perfbench {

using namespace losstomo;

void Gate::check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed;
  std::cerr << "gate: " << what << "\n";
}

namespace {

// The monitor's input for one trace row: Y = log max(phi, 1e-9) over the
// known paths, 0.0 for inactive ones.
std::vector<double> known_log_row(std::span<const double> phi,
                                  const ChurnLedger& ledger) {
  std::vector<double> y(ledger.active.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = ledger.active[i] != 0 ? std::log(std::max(phi[i], 1e-9)) : 0.0;
  }
  return y;
}

bool valid_loss(const linalg::Vector& loss) {
  return std::all_of(loss.begin(), loss.end(), [](double q) {
    return std::isfinite(q) && q >= 0.0 && q <= 1.0;
  });
}

void apply_event(core::LiaMonitor& monitor, const ChurnEvent& event) {
  switch (event.kind) {
    case ChurnEvent::Kind::kJoin:
      monitor.set_path_active(event.path, true);
      break;
    case ChurnEvent::Kind::kLeave:
      monitor.set_path_active(event.path, false);
      break;
    case ChurnEvent::Kind::kGrow:
      monitor.add_paths(event.rows);
      break;
  }
}

core::MonitorOptions monitor_options(const WorkloadSpec& spec) {
  core::MonitorOptions options;
  options.window = spec.window;
  return options;
}

// One monitor fed from the trace: source -> log -> [known rows] -> sink.
// Elements hold pointers to each other, so a feed never moves.
class MonitorFeed {
 public:
  MonitorFeed(const Inputs& inputs, const Segment& segment,
              const ChurnLedger& ledger)
      : monitor_(inputs.routing, monitor_options(inputs.spec)),
        source_(*segment.trace),
        known_(ledger),
        sink_(monitor_, [this](std::size_t, const core::LossInference& inf) {
          loss_ = inf.loss;
          diagnosed_ = true;
        }) {
    if (inputs.spec.churn) {
      log_.to(known_).to(sink_);
    } else {
      log_.to(sink_);
    }
  }
  MonitorFeed(const MonitorFeed&) = delete;
  MonitorFeed& operator=(const MonitorFeed&) = delete;

  /// Pumps the next trace row; true when it produced a diagnosis.
  bool pump() {
    diagnosed_ = false;
    if (source_.pump(log_, 1) != 1) throw std::runtime_error("trace exhausted");
    return diagnosed_;
  }

  core::LiaMonitor& monitor() { return monitor_; }
  [[nodiscard]] const linalg::Vector& loss() const { return loss_; }

 private:
  core::LiaMonitor monitor_;
  io::BinaryTraceSource source_;
  io::LogTransform log_;
  KnownRows known_;
  io::MonitorSink sink_;
  linalg::Vector loss_;
  bool diagnosed_ = false;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

// The sampled tick against a from-scratch Lia::learn on the materialised
// window: all paths for the static workloads; for churn, Phase 1 on the
// active paths whose window is full and Phase 2 on the active submatrix —
// the monitor's own batch rule.
void check_from_scratch(const Inputs& inputs, const Segment& segment,
                        const ChurnLedger& ledger, std::size_t row,
                        const linalg::Vector& streamed, Gate& gate) {
  const auto& reader = *segment.trace;
  const std::size_t window = inputs.spec.window;
  core::MonitorOptions options = monitor_options(inputs.spec);
  core::LossInference batch;
  if (!inputs.spec.churn) {
    options.lia.variance.negatives =
        core::resolve_negative_policy(options.lia.variance,
                                      inputs.routing.rows())
            ? core::NegativeCovariancePolicy::kDrop
            : core::NegativeCovariancePolicy::kKeep;
    const std::size_t np = inputs.routing.rows();
    stats::SnapshotMatrix history(np, window);
    for (std::size_t l = 0; l < window; ++l) {
      const auto y = known_log_row(reader.row(row - window + l), ledger);
      std::copy(y.begin(), y.end(), history.sample(l).begin());
    }
    core::Lia lia(inputs.routing, options.lia);
    lia.learn(history);
    batch = lia.infer(known_log_row(reader.row(row), ledger));
  } else {
    options.lia.variance.negatives = core::NegativeCovariancePolicy::kDrop;
    // Known paths are the universe's leading rows (bursts append in order).
    const std::size_t known = ledger.active.size();
    const std::size_t cols = inputs.universe.cols();
    std::vector<std::size_t> full_rows, active_rows;
    std::vector<std::vector<std::uint32_t>> full_routes, active_routes;
    for (std::size_t i = 0; i < known; ++i) {
      if (ledger.active[i] == 0) continue;
      active_rows.push_back(i);
      const auto route = inputs.universe.row(i);
      active_routes.emplace_back(route.begin(), route.end());
      if (ledger.full(i, row, window)) {
        full_rows.push_back(i);
        full_routes.emplace_back(route.begin(), route.end());
      }
    }
    const linalg::SparseBinaryMatrix full_r(cols, std::move(full_routes));
    const linalg::SparseBinaryMatrix active_r(cols, std::move(active_routes));
    stats::SnapshotMatrix history(full_rows.size(), window);
    for (std::size_t l = 0; l < window; ++l) {
      const auto phi = reader.row(row - window + l);
      for (std::size_t k = 0; k < full_rows.size(); ++k) {
        history.at(l, k) = std::log(std::max(phi[full_rows[k]], 1e-9));
      }
    }
    core::Lia lia(full_r, options.lia);
    const auto& v = lia.learn(history).v;
    const auto elimination =
        core::eliminate_low_variance_links(active_r, v, options.lia.elimination);
    const auto phi = reader.row(row);
    linalg::Vector y(active_rows.size());
    for (std::size_t k = 0; k < active_rows.size(); ++k) {
      y[k] = std::log(std::max(phi[active_rows[k]], 1e-9));
    }
    batch = core::infer_snapshot_losses(active_r, elimination, y);
  }
  const bool same_size = batch.loss.size() == streamed.size();
  const double diff =
      same_size ? linalg::max_abs_diff(batch.loss, streamed) : HUGE_VAL;
  gate.check(same_size && diff <= 1e-10,
             "tick at trace row " + std::to_string(row) +
                 " differs from a from-scratch Lia::learn by " +
                 std::to_string(diff));
}

// Saves the warm monitor and restores it into fresh ones `reps` times,
// then checks that the last restored monitor continues exactly as the
// warm one.  Returns the checkpoint's size in bytes.
std::size_t check_failover(const Inputs& inputs, const Segment& segment,
                           core::LiaMonitor& monitor, ChurnLedger& ledger,
                           std::size_t reps, UntracedResult& out, Gate& gate) {
  std::vector<std::uint8_t> image;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    util::Timer timer;
    io::CheckpointWriter writer;
    monitor.save_state(writer);
    image = writer.finish();
    out.save_s.push_back(timer.seconds());
  }
  const std::size_t checkpoint_bytes = image.size();
  std::unique_ptr<core::LiaMonitor> restored;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    restored.reset();
    restored = std::make_unique<core::LiaMonitor>(
        inputs.routing, monitor_options(inputs.spec));
    auto copy = image;
    util::Timer timer;
    auto checkpoint = io::CheckpointReader::from_bytes(std::move(copy));
    restored->restore_state(checkpoint);
    out.restore_s.push_back(timer.seconds());
  }
  image = {};

  for (std::size_t c = 0; c < inputs.continuation; ++c) {
    const std::size_t row = inputs.first_steady_row() + inputs.steady + c;
    for (const auto& event : segment.events[row]) {
      apply_event(monitor, event);
      apply_event(*restored, event);
      ledger.apply(event, row);
    }
    const auto y = known_log_row(segment.trace->row(row), ledger);
    const auto warm = monitor.observe(y);
    const auto resumed = restored->observe(y);
    ++gate.attempted;
    gate.check(warm && resumed && valid_loss(warm->loss) &&
                   bit_identical(warm->loss, resumed->loss),
               "restored monitor diverges at continuation tick " +
                   std::to_string(c));
  }
  return checkpoint_bytes;
}

}  // namespace

UntracedResult run_untraced(const Inputs& inputs, std::size_t setups,
                            std::size_t checkpoint_reps, Gate& gate) {
  UntracedResult out;
  const std::size_t first = inputs.first_steady_row();
  const std::size_t steady = inputs.steady;
  out.tick_s.resize(inputs.segments.size() * steady);
  out.loss.resize(inputs.segments.size() * steady);
  double dr = 0.0, fpr = 0.0;
  for (const Segment& segment : inputs.segments) {
    const auto offset =
        static_cast<std::size_t>(&segment - inputs.segments.data());
    std::unique_ptr<MonitorFeed> feed;
    std::optional<ChurnLedger> ledger;
    for (std::size_t rep = 0; rep < setups; ++rep) {
      feed.reset();
      ledger.emplace(inputs.routing.rows());
      util::Timer timer;
      feed = std::make_unique<MonitorFeed>(inputs, segment, *ledger);
      bool diagnosed = false;
      for (std::size_t t = 0; t < first; ++t) diagnosed = feed->pump();
      out.setup_s.push_back(timer.seconds());
      gate.check(diagnosed && valid_loss(feed->loss()),
                 "set-up did not end in a diagnosis in [0, 1]");
    }
    core::LiaMonitor& monitor = feed->monitor();

    // Steady run.  The sampled tick's ledger is kept for the batch check.
    const std::size_t sampled = steady / 2;
    std::optional<ChurnLedger> sampled_ledger;
    double* tick_s = out.tick_s.data() + offset * steady;
    linalg::Vector* loss = out.loss.data() + offset * steady;
    util::Timer steady_timer;
    for (std::size_t s = 0; s < steady; ++s) {
      util::Timer tick_timer;
      for (const auto& event : segment.events[first + s]) {
        apply_event(monitor, event);
        ledger->apply(event, first + s);
      }
      const bool diagnosed = feed->pump();
      tick_s[s] = tick_timer.seconds();
      if (diagnosed) loss[s] = feed->loss();
      if (s == sampled) sampled_ledger = *ledger;
    }
    out.steady_s += steady_timer.seconds();

    for (std::size_t s = 0; s < steady; ++s) {
      ++gate.attempted;
      gate.check(!loss[s].empty() && valid_loss(loss[s]),
                 "steady tick " + std::to_string(s) +
                     " has no finite loss in [0, 1]");
      if (loss[s].empty()) continue;
      const auto accuracy = core::locate_congested(
          loss[s], segment.congested[first + s], inputs.threshold_tl);
      dr += accuracy.dr;
      fpr += accuracy.fpr;
    }
    // Memory and the batch check are measured on the first segment,
    // before any other segment or checkpoint has touched the heap.
    if (offset == 0) {
      out.peak_rss_mb = peak_rss_mb();
      check_from_scratch(inputs, segment, *sampled_ledger, first + sampled,
                         loss[sampled], gate);
    }
    // Failover on every segment, so the save and restore medians span the
    // whole run rather than a few seconds of it.
    if (checkpoint_reps > 0) {
      const std::size_t bytes = check_failover(
          inputs, segment, monitor, *ledger, checkpoint_reps, out, gate);
      if (offset == 0) out.checkpoint_bytes = bytes;
    }
  }
  const auto ticks = static_cast<double>(out.tick_s.size());
  out.detection_rate = dr / ticks;
  out.false_positive_rate = fpr / ticks;
  return out;
}

}  // namespace perfbench

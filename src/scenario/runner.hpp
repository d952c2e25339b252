// ScenarioRunner — drives sim::SnapshotSimulator + core::LiaMonitor
// through a scripted churn timeline (spec.hpp).
//
// The runner fixes a *universe* of measurement paths at construction: the
// base paths routed over the generated topology, plus the alternate routes
// every kRouteChange event will switch to, plus the reserve paths kGrow /
// kGrowLinks events will append — laid out in exactly the order the
// monitor will come to know them, so universe row indices and monitor row
// indices coincide.  The reduced routing matrix (virtual-link basis) is
// computed once over the whole universe.
//
// The monitor's *link* basis depends on the script.  Without kGrowLinks
// events it is the whole universe basis (identity mapping — churn changes
// which rows are live, never the column space).  Any kGrowLinks event
// switches the runner to link-discovery mode: the monitor starts with only
// the universe links covered by non-kGrowLinks rows (initial paths,
// reroute alternates, kGrow reserve rows), and a kGrowLinks batch whose
// routes reference still-unseen links appends those links as fresh monitor
// columns (core::LiaMonitor::add_paths with new_links > 0 — G and h widen
// with zeros, no rebuild).  monitor_links()
// maps monitor columns back to universe links; the full mapping is fixed
// at construction, so it is a pure function of the spec.
//
// The per-unit loss processes evolve continuously for every universe path
// whether or not it is measured, and consume the same RNG stream either
// way; with ScenarioSpec::lazy_simulation (the default) the per-tick path
// evaluation runs only for monitor-active rows — dormant reserve rows cost
// nothing — and inactive/unknown rows carry a 0.0 filler in
// last_snapshot().  The runner feeds the monitor the prefix of rows it
// currently knows, zero-filled for inactive paths (deterministic filler —
// never read by the estimator).
//
// Determinism: a runner is a pure function of (spec, monitor options) —
// two runners over the same spec see identical snapshots and events, which
// is how the parity tests drive monitors with different options through
// one scenario and compare tick by tick (and how a recorded feed replays
// into a reference that follows the monitor's churn).
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "io/binary_trace.hpp"
#include "net/graph.hpp"
#include "net/path.hpp"
#include "net/routing_matrix.hpp"
#include "scenario/spec.hpp"
#include "sim/probe_sim.hpp"
#include "stats/moments.hpp"

namespace losstomo::io {
class CheckpointWriter;
class CheckpointReader;
}  // namespace losstomo::io

namespace losstomo::scenario {

/// Aggregate figures of one scenario run.
struct ScenarioOutcome {
  std::size_t ticks = 0;
  std::size_t events_applied = 0;
  std::size_t diagnosed = 0;
  std::size_t active_paths_end = 0;
  /// Mean/max seconds of diagnosing ticks with no event applied (the
  /// steady state) and of ticks that applied at least one event.  Wall
  /// clock, so not checkpointed: after a restore they cover the ticks run
  /// since the restore.
  double steady_tick_seconds = 0.0;
  double event_tick_seconds = 0.0;
  double max_tick_seconds = 0.0;
};

class ScenarioRunner {
 public:
  /// Builds the universe (topology, base + alternate + reserve paths),
  /// the simulator, and the monitor.  `monitor_options.window` comes from
  /// the spec (every other monitor knob is the caller's); a kAuto
  /// negative-covariance policy resolves to drop-negative (churn requires
  /// it).  Throws std::invalid_argument on an invalid spec — unknown
  /// paths/links, a reroute with no alternate
  /// route (trees) or of an already-rerouted path, or a combined
  /// reserve-pool consumption (kGrow + kGrowLinks counts together) beyond
  /// reserve_paths; the pending-addition queue every reroute/grow pops is
  /// validated against the whole timeline up front, so apply-time pops can
  /// never run off a misaligned queue.
  explicit ScenarioRunner(ScenarioSpec spec,
                          core::MonitorOptions monitor_options = {});
  ScenarioRunner(ScenarioRunner&&) noexcept;
  ScenarioRunner& operator=(ScenarioRunner&&) noexcept;
  ~ScenarioRunner();

  /// Applies the events due at the current tick, generates one snapshot,
  /// and feeds it to the monitor.  Returns the monitor's inference (empty
  /// while the window is filling).
  std::optional<core::LossInference> step();

  /// Runs the remaining ticks; fn(tick, events_applied_this_tick,
  /// inference) is invoked after each one.
  template <typename Fn>
  ScenarioOutcome run(Fn&& fn) {
    while (tick_ < spec_.ticks) {
      const std::size_t before = events_applied_;
      auto inference = step();
      fn(tick_ - 1, events_applied_ - before, inference);
    }
    return outcome();
  }
  ScenarioOutcome run() {
    return run([](std::size_t, std::size_t, const auto&) {});
  }

  [[nodiscard]] ScenarioOutcome outcome() const;

  [[nodiscard]] const ScenarioSpec& spec() const { return spec_; }
  [[nodiscard]] const EventTimeline& timeline() const { return timeline_; }
  [[nodiscard]] core::LiaMonitor& monitor() { return *monitor_; }
  [[nodiscard]] const core::LiaMonitor& monitor() const { return *monitor_; }
  /// The universe routing matrix (all base + alternate + reserve paths).
  [[nodiscard]] const net::ReducedRoutingMatrix& universe() const {
    return *rrm_;
  }
  /// The simulator driving the scenario (configuration diagnostics).
  [[nodiscard]] const sim::SnapshotSimulator& simulator() const {
    return *simulator_;
  }
  /// Universe link id of each monitor column, in monitor-column order.
  /// Identity (0, 1, ..., nc-1) without kGrowLinks events; in
  /// link-discovery mode the discovered links in first-seen order.  The
  /// prefix monitor().routing().cols() is live; the rest will be appended
  /// by future kGrowLinks events.
  [[nodiscard]] const std::vector<std::uint32_t>& monitor_links() const {
    return monitor_to_universe_;
  }
  [[nodiscard]] const net::Graph& graph() const { return *graph_; }
  /// Base paths routed over the topology (before alternates/reserve).
  [[nodiscard]] std::size_t base_path_count() const { return base_paths_; }
  [[nodiscard]] std::size_t ticks_run() const { return tick_; }
  [[nodiscard]] std::size_t events_applied() const { return events_applied_; }
  /// Events applied so far by type, indexed by
  /// static_cast<std::size_t>(EventType) (size kEventTypeCount).  Mirrors
  /// events_applied() exactly, survives checkpoint/restore, and feeds the
  /// per-event-type telemetry counters.
  [[nodiscard]] const std::vector<std::size_t>& event_counts() const {
    return event_counts_;
  }
  /// Ground truth of the most recent tick (for accuracy evaluation).
  [[nodiscard]] const sim::Snapshot& last_snapshot() const {
    return last_snapshot_;
  }

  // -- Trace record / replay (io/binary_trace.hpp) ------------------------
  //
  // Recording captures the exact monitor feed: every step() appends one
  // universe-width row of Y = log phi (zero filler for rows the monitor
  // does not yet know or has retired) to a log-flagged binary trace, so
  // the arity is constant even while churn events grow the known prefix.
  // Replay drives the monitor from such a trace INSTEAD of the simulator:
  // events still apply on schedule (they are what grows/retires rows), but
  // each tick's y is the recorded row's known-rows prefix — bit-identical
  // to the feed of the recording run, hence bit-identical inferences at
  // any thread count (tests/scenario/replay_test).  Ground truth is not
  // recorded: last_snapshot() is empty during replay.

  /// Arms recording to `file`; the trace is sealed when the final tick
  /// runs (an aborted run leaves a file every reader rejects).  Call
  /// before the first step().
  void record_trace(const std::string& file);
  /// Arms replay from `file`.  Validates arity (= universe path count),
  /// the log-transform flag, and the tick count against the spec; throws
  /// io::CheckpointError(kMismatch) on disagreement, kBadMagic/kCorrupt/
  /// ... per the binary-trace failure surface.  Call before the first
  /// step().
  void replay_trace(const std::string& file);
  /// True when replay_trace is driving (last_snapshot() is meaningless).
  [[nodiscard]] bool replaying() const { return replay_.has_value(); }

  // -- Checkpointing (io/checkpoint.hpp) ----------------------------------
  //
  // save_state serializes the runner's full resumable state: the scenario
  // spec itself (as text, for identity validation on restore), the tick /
  // event / diagnosis counters, the pending-addition queue, the
  // simulator's stochastic state, and the complete monitor.
  // last_snapshot() is NOT serialized — the next step() regenerates it
  // before anything reads it — and neither are the wall-clock tick
  // timings (ScenarioOutcome's *_tick_seconds), so two runs of one
  // scenario give byte-identical images; a restore restarts the timings.
  //
  // restore_state rebuilds a *fresh* monitor and simulator (exactly the
  // constructor's), restores the serialized state into them, and commits
  // only after everything validated — a failed restore (torn file, flipped
  // bits, a checkpoint from a different scenario or monitor configuration)
  // throws io::CheckpointError and leaves the runner fully usable.  A
  // restored runner continues bit-identically: same inferences at every
  // remaining tick, with the uninterrupted run's factorization count.
  void save_state(io::CheckpointWriter& writer) const;
  void restore_state(io::CheckpointReader& reader);
  /// File conveniences over save_state/restore_state.
  void save_checkpoint(const std::string& file) const;
  void restore_checkpoint(const std::string& file);

 private:
  struct Telemetry;  // pre-resolved metric handles (runner.cpp)

  void apply(const Event& event);
  /// Counts `type` into event_counts_ — called exactly where apply()
  /// increments events_applied_, so the two ledgers never diverge.
  void count_event(EventType type) {
    ++event_counts_[static_cast<std::size_t>(type)];
  }
  /// Mirrors tick/diagnosis/event counters into the attached registry
  /// (no-op without one); runs at the end of step() and after a restore.
  void publish_telemetry();
  [[nodiscard]] std::unique_ptr<core::LiaMonitor> make_initial_monitor() const;
  [[nodiscard]] std::unique_ptr<sim::SnapshotSimulator> make_simulator() const;

  ScenarioSpec spec_;
  EventTimeline timeline_;
  // Heap-held so its address survives a move: the simulator refers to it.
  std::unique_ptr<const net::Graph> graph_;
  std::vector<net::Path> universe_paths_;
  core::MonitorOptions monitor_options_;  // resolved (window, drop policy)
  sim::ScenarioConfig sim_config_;
  std::size_t initial_links_ = 0;  // monitor columns at construction
  std::unique_ptr<net::ReducedRoutingMatrix> rrm_;
  std::unique_ptr<sim::SnapshotSimulator> simulator_;
  std::unique_ptr<core::LiaMonitor> monitor_;
  std::size_t base_paths_ = 0;
  // Universe rows each addition event will append, in timeline order.
  std::deque<std::size_t> pending_additions_;
  // Universe link -> monitor column (fully resolved at construction; in
  // link-discovery mode fresh links map to columns the monitor does not
  // have yet) and its inverse.  Identity without kGrowLinks events.
  std::vector<std::uint32_t> link_to_monitor_;
  std::vector<std::uint32_t> monitor_to_universe_;
  std::vector<std::uint8_t> needed_;  // lazy-simulation scratch mask
  std::size_t tick_ = 0;
  std::size_t events_applied_ = 0;
  std::size_t diagnosed_ = 0;
  std::vector<std::size_t> event_counts_;  // by EventType, serialized
  stats::RunningStat steady_tick_;
  stats::RunningStat event_tick_;
  double max_tick_seconds_ = 0.0;
  std::vector<double> y_;
  sim::Snapshot last_snapshot_;
  // Trace record/replay (armed post-construction, run-scoped).
  std::unique_ptr<io::BinaryTraceWriter> recorder_;
  std::vector<double> record_row_;
  std::optional<io::BinaryTraceReader> replay_;
  std::unique_ptr<Telemetry> obs_;  // nullptr unless options.telemetry
};

/// Crash-recovery entry point: reads the checkpoint at `file`, rebuilds the
/// runner from the spec embedded in it (monitor knobs other than the
/// window come from `monitor_options`, which must match the checkpointing
/// process's), and restores the serialized state into it.  Throws
/// io::CheckpointError on any defect in the file.
ScenarioRunner restore_runner(const std::string& file,
                              core::MonitorOptions monitor_options = {});

}  // namespace losstomo::scenario

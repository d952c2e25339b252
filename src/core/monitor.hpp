// LiaMonitor — continuous monitoring on a sliding snapshot window.
//
// The deployment loop of the paper's §7: every measurement period a new
// snapshot arrives; the monitor keeps the most recent m snapshots,
// re-learns the link variances, and diagnoses the newest snapshot.  This
// is the pattern used by examples/overlay_monitoring and the §7.2.2
// duration study, packaged so library users get it directly.
//
// Every diagnosing tick runs one procedure: Phase 1 learns the link
// variances from the m preceding snapshots, then Phase 2
// (eliminate_low_variance_links + infer_snapshot_losses) diagnoses
// snapshot m+1 on the active-row submatrix of the routing matrix.  An
// overlay without churn is the case where every path is active.
//
// The relearn is incremental: one accumulator (stats::WindowAccumulator)
// keeps the window, and a StreamingNormalEquations instance refreshes h
// (and the sign-flipped parts of G) from it.  The policy picks the
// accumulator.  Under keep-all, G never changes (the normal equations are
// factorized exactly once) and h is the closed form over the window's
// snapshots, so the
// accumulator is stats::SnapshotRing: the ring alone, O(np) per push.
// Under drop-negative, h sums the non-negative pair covariances, kept
// current under rank-1 add/retire updates by the dense
// stats::StreamingMoments (full C, O(np^2) per tick) or the pair-indexed
// core::PairMoments (sharing-pair entries only, O(np + pairs) per tick —
// the configuration that scales drop-negative monitoring to
// multi-thousand-path overlays), per MonitorOptions::accumulator, and
// every relearn factorizes the exact integer G afresh through the batch
// solve's tail.  Steady-state tick cost is independent of the window
// length.  Every
// observed snapshot enters the window regardless of relearn_every.
//
// The inferences match the paper's procedure — Lia::learn on the m
// preceding snapshots, then Phase 2 on snapshot m+1 — to <= 1e-10; the
// test oracle losstomo::testing::BatchRelearnOracle
// (tests/batch_oracle.hpp) reruns that procedure from scratch every
// relearn and pins the parity.
// Under drop-negative a pair covariance within the accumulator's drift of
// zero can resolve its drop decision differently than a from-scratch
// relearn (the policy is discontinuous at cov = 0; keep-all has no such
// boundary).  The monitor solves with VarianceMethod::kAuto / kNormal
// only: kDenseQr (which needs the materialised batch system) and kNnls are
// rejected at construction; both stay available through Lia::learn /
// estimate_link_variances.
//
// Path churn (scenario engine, src/scenario/): the monitored overlay may
// evolve mid-run — paths join, leave, change routes, and arrive in mass-
// growth bursts.  Routing-matrix rows are appended in batches (add_paths —
// one O(appended nnz) append + one accumulator growth for the whole burst,
// state-identical to a loop of one-row batches), and activated/retired
// (set_path_active), while the streaming state carries over untouched for
// every unaffected path.  The *link* universe can grow too: add_paths rows
// may reference fresh columns (new_links), which enter G as zero rows and
// columns, pinned to zero variance by the solve until pair equations cover
// them.
// A (re)joining path warms up for one full window before its pair
// equations enter Phase 1 (exactly the warm-up the initial window
// imposes), and every churn event forces a relearn at the next
// diagnosing tick, so Phase 2 always runs on the current active set.
// Path churn requires the drop-negative policy.  Callers must keep
// supplying a snapshot entry for every known row — 0.0 for inactive
// paths (a deterministic filler; never read by the estimator).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/lia.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "stats/moments.hpp"
#include "stats/sliding_window.hpp"

namespace losstomo::io {
class CheckpointWriter;
class CheckpointReader;
}  // namespace losstomo::io

namespace losstomo::obs {
class Registry;
}  // namespace losstomo::obs

namespace losstomo::core {

/// The drop-negative accumulator (keep-all always runs on the ring).
enum class CovarianceAccumulator {
  kDense,         // stats::StreamingMoments: full C, O(np^2) per tick
  kSharingPairs,  // core::PairMoments: sharing-pair entries, O(np + pairs)
};

struct MonitorOptions {
  /// Learning-window length (the paper's m).
  std::size_t window = 50;
  /// Re-learn variances every `relearn_every` ticks (1 = every tick, the
  /// paper's procedure; larger values amortise Phase 1, which is the
  /// dominant cost — see bench/sec64_runtime).  Every snapshot still enters
  /// the window, so a delayed relearn sees the full intermediate history.
  /// A churn event forces a relearn at the next diagnosing tick so Phase 2
  /// always runs against the current active set.
  std::size_t relearn_every = 1;
  /// Which incremental covariance accumulator backs a drop-negative
  /// relearn.  Keep-all reads only the window's snapshots and runs on
  /// stats::SnapshotRing whatever this says; kSharingPairs requires a
  /// configuration that resolves to the drop-negative policy (throws
  /// std::invalid_argument otherwise).
  CovarianceAccumulator accumulator = CovarianceAccumulator::kDense;
  /// Full recompute cadence of the incremental accumulator in ticks,
  /// bounding floating-point drift
  /// (stats::StreamingMomentsOptions::refresh_every); 0 = 2 * window.
  std::size_t refresh_every = 0;
  /// Telemetry sink (obs/registry.hpp); nullptr (the default) leaves the
  /// monitor uninstrumented.  The monitor registers its metric set, opens
  /// accumulate/solve phase spans around the per-tick work, and publishes
  /// the deterministic counter set from serialized engine state at the end
  /// of every observe() — so the published values are bit-identical across
  /// thread counts and a checkpoint/restore (see docs/OBSERVABILITY.md).
  /// The registry must outlive the monitor.
  obs::Registry* telemetry = nullptr;
  LiaOptions lia;
};

/// Feeds snapshots one at a time; once the window is full, every further
/// snapshot is diagnosed against variances learned from the preceding
/// window.
///
/// Thread-safety: single-writer — call observe() and the churn methods
/// from one thread.  Internal work parallelizes per
/// MonitorOptions::lia.variance.threads with bit-identical results at any
/// thread count.
class LiaMonitor {
 public:
  /// Takes the routing matrix by value (owned), so constructing from a
  /// temporary is safe.  Throws std::invalid_argument for window < 2,
  /// relearn_every == 0, VarianceMethod::kDenseQr or kNnls, or an
  /// inconsistent accumulator configuration.  Keep-all configurations
  /// assemble G here (O(nc^2)); drop-negative with the dense accumulator
  /// defers its sharing-pair store to the first relearn tick, while
  /// kSharingPairs builds it here (the accumulator indexes it from the
  /// first snapshot on).
  explicit LiaMonitor(linalg::SparseBinaryMatrix r, MonitorOptions options = {});
  LiaMonitor(LiaMonitor&&);
  LiaMonitor& operator=(LiaMonitor&&);
  ~LiaMonitor();

  /// Observes one snapshot (Y = log path transmission rates).  Returns the
  /// inference for this snapshot, or std::nullopt while the window is
  /// still filling (the first `window` snapshots are learning-only).
  /// Throws std::invalid_argument, before any state changes, unless
  /// `y.size()` equals routing().rows() and every entry is finite (a NaN
  /// or infinity would poison the window statistics).  Steady-state cost
  /// per tick: the accumulator update (O(np) keep-all ring, O(np^2) dense,
  /// O(np + pairs) pair-indexed) + the normal-equation refresh (the
  /// O(m·(np + nnz)) closed form under keep-all, proportional to the
  /// sharing structure under drop-negative) + the solve (O(nc^2) on the
  /// keep-all factor, an O(nc^3 / 3) factorization under drop-negative).
  std::optional<LossInference> observe(std::span<const double> y);

  /// Per-diagnosing-tick callback for observe_block: (0-based tick index,
  /// the inference for that tick).
  using InferenceFn = std::function<void(std::size_t, const LossInference&)>;

  /// Observes `rows` consecutive snapshots from a contiguous row-major
  /// block of rows * routing().rows() doubles — the batched ingestion
  /// entry point (io::MonitorSink feeds mmap-backed binary-trace blocks
  /// here with zero copies).  Tick-identical to `rows` observe() calls:
  /// each row still advances the window, relearn cadence, and diagnosis
  /// exactly as observe() would, so inferences are bit-identical to the
  /// per-row loop.  The whole block is validated first: a non-finite entry
  /// anywhere throws std::invalid_argument before any row is consumed.
  /// `on_inference` (optional) fires for every tick that produces a
  /// diagnosis.
  void observe_block(std::span<const double> values, std::size_t rows,
                     const InferenceFn& on_inference = {});

  // -- Path churn ---------------------------------------------------------

  /// Activates (join) or retires (leave) path `path`.  A retired path's
  /// equations leave Phase 1 immediately and the path leaves Phase 2's
  /// active submatrix; a (re)activated path warms up for one full window
  /// before its pair equations re-enter.  Requires the drop-negative
  /// policy (throws std::logic_error otherwise).
  void set_path_active(std::size_t path, bool active);

  /// Mass growth: appends a batch of paths in ONE step — one O(appended
  /// nnz) routing-matrix append, one pair-store growth, one accumulator
  /// reallocation, one grouped normal-equation registration — where a loop
  /// of one-row calls would pay the accumulator/bookkeeping resize per
  /// row.  State-identical to that loop (bit-parity pinned by
  /// tests/core/monitor_growth_test).
  ///
  /// `rows[i]` lists path i's links as column indices
  /// < routing().cols() + new_links; indices >= routing().cols() denote
  /// FRESH virtual links, appended to the link universe in the same step
  /// (fresh links have zero rows and columns in G and are pinned to zero
  /// variance until warmed pairs cover them).  All appended paths start
  /// active with zero history.  Returns the first appended row's index.
  /// Throws std::invalid_argument on an empty batch or malformed rows,
  /// std::logic_error for configurations not resolving to drop-negative.
  std::size_t add_paths(std::vector<std::vector<std::uint32_t>> rows,
                        std::size_t new_links = 0);

  [[nodiscard]] bool path_active(std::size_t path) const {
    return active_[path] != 0;
  }
  [[nodiscard]] std::size_t active_path_count() const;

  /// Number of snapshots consumed so far.
  [[nodiscard]] std::size_t ticks() const { return ticks_; }
  /// True once diagnoses are being produced.
  [[nodiscard]] bool warmed_up() const { return ticks_ >= options_.window; }
  /// Variances from the most recent learn (requires warmed_up()).
  [[nodiscard]] const VarianceEstimate& variances() const;
  /// The configured drop-negative accumulator (MonitorOptions::accumulator).
  [[nodiscard]] CovarianceAccumulator accumulator() const {
    return options_.accumulator;
  }
  /// The incrementally maintained Phase-1 system, for diagnostics
  /// (refactorizations, pinned links, pair store size).
  [[nodiscard]] const StreamingNormalEquations& streaming_equations() const {
    return equations_;
  }
  [[nodiscard]] const linalg::SparseBinaryMatrix& routing() const {
    return r_;
  }

  // -- Checkpointing (io/checkpoint.hpp) ----------------------------------
  //
  // save_state serializes the complete mutable monitor: the (possibly
  // grown) routing matrix, tick/relearn counters, the activation ledger,
  // the streaming stack (shared pair store, the accumulator's section,
  // incrementally maintained normal equations, with the keep-all factor),
  // and the current Phase-1 estimate.  The Phase-2 elimination is NOT
  // serialized — it is a pure function of (active routing rows,
  // variances) and is recomputed on restore, bit-identically.
  //
  // restore_state targets a monitor constructed with the SAME options and
  // the same *initial* routing matrix (paths appended mid-run are replayed
  // from the checkpoint); it validates a configuration fingerprint first
  // and throws io::CheckpointError(kMismatch) on disagreement.  All
  // payload is parsed and validated into temporaries before any member
  // changes, so a failed restore leaves the monitor fully usable.  A
  // restored monitor resumes bit-identically; a keep-all one keeps its
  // factor (no refactorization on resume).
  void save_state(io::CheckpointWriter& writer) const;
  void restore_state(io::CheckpointReader& reader);

 private:
  struct Telemetry;  // pre-resolved metric handles (monitor.cpp)

  /// One tick on a validated snapshot (observe/observe_block).
  std::optional<LossInference> tick(std::span<const double> y);
  /// Phase 1 on the current window + the Phase-2 elimination on the
  /// active submatrix.
  void relearn();
  void rebuild_active();
  /// Mirrors the deterministic engine state into the attached registry
  /// (no-op without one).  Called at the end of every observe() and after
  /// a restore commit, so exported counters always reflect the serialized
  /// state they are derived from.
  void publish_telemetry();

  MonitorOptions options_;
  linalg::SparseBinaryMatrix r_;  // authoritative (grows under add_paths)
  std::shared_ptr<SharingPairStore> store_;  // kSharingPairs only
  // The window statistics, picked by the policy (make_accumulator).
  std::unique_ptr<stats::WindowAccumulator> accumulator_;
  StreamingNormalEquations equations_;
  std::vector<std::uint8_t> active_;
  std::vector<std::size_t> activated_tick_;  // ticks_ at last activation
  bool active_dirty_ = true;
  std::vector<std::uint32_t> active_rows_;
  std::optional<linalg::SparseBinaryMatrix> active_r_;  // Phase-2 rows
  std::optional<VarianceEstimate> variance_;
  std::optional<Elimination> elimination_;  // on *active_r_
  std::size_t ticks_ = 0;
  std::size_t since_learn_ = 0;
  std::unique_ptr<Telemetry> obs_;  // nullptr unless options.telemetry
};

}  // namespace losstomo::core

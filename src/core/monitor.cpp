#include "core/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/pair_moments.hpp"
#include "io/checkpoint.hpp"
#include "io/checkpoint_tags.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "stats/streaming.hpp"

namespace losstomo::core {

// Pre-resolved telemetry handles: one name lookup per metric at
// construction, plain stores per tick afterwards.  Everything registered
// kDeterministic here is published (Counter::set / Gauge::set) from
// serialized engine state in publish_telemetry(), never live-counted, so
// the exported values inherit the engine's bit-identity guarantees.
struct LiaMonitor::Telemetry {
  obs::Registry* registry;
  // Deterministic counters (serialized engine state).
  obs::Counter* ticks;
  obs::Counter* rank1_updates;
  obs::Counter* refactorizations;
  obs::Counter* pin_updates;
  obs::Counter* pcg_iterations;
  obs::Counter* downdate_fallbacks;
  obs::Counter* links_grown;
  obs::Counter* pairs;
  // Deterministic gauges (point-in-time serialized state).
  obs::Gauge* paths;
  obs::Gauge* active_paths;
  obs::Gauge* links;
  obs::Gauge* links_pinned;
  obs::Gauge* pending_flips;
  obs::Gauge* window_fill;
  obs::Gauge* equations_used;
  obs::Gauge* equations_dropped;
  obs::Gauge* negative_clamped;
  // Phase span ids.
  std::size_t tick_phase;
  std::size_t accumulate_phase;
  std::size_t solve_phase;

  explicit Telemetry(obs::Registry& r)
      : registry(&r),
        ticks(&r.counter("monitor.ticks")),
        rank1_updates(&r.counter("monitor.rank1_updates")),
        refactorizations(&r.counter("monitor.refactorizations")),
        pin_updates(&r.counter("monitor.pin_updates")),
        pcg_iterations(&r.counter("monitor.pcg_iterations")),
        downdate_fallbacks(&r.counter("monitor.downdate_fallbacks")),
        links_grown(&r.counter("monitor.links_grown")),
        pairs(&r.counter("monitor.pairs")),
        paths(&r.gauge("monitor.paths")),
        active_paths(&r.gauge("monitor.active_paths")),
        links(&r.gauge("monitor.links")),
        links_pinned(&r.gauge("monitor.links_pinned")),
        pending_flips(&r.gauge("monitor.pending_flips")),
        window_fill(&r.gauge("monitor.window_fill")),
        equations_used(&r.gauge("monitor.estimate.equations_used")),
        equations_dropped(&r.gauge("monitor.estimate.equations_dropped")),
        negative_clamped(&r.gauge("monitor.estimate.negative_clamped")),
        tick_phase(r.phase("tick")),
        accumulate_phase(r.phase("accumulate")),
        solve_phase(r.phase("solve")) {}
};

namespace {

// Validates the options and freezes the negative-covariance policy on the
// construction-time path set: churned relearns run over active submatrices
// whose row count may cross the kAuto pairwise cap, and every relearn must
// resolve the policy identically.
MonitorOptions resolve_monitor_options(MonitorOptions options,
                                       const linalg::SparseBinaryMatrix& r) {
  if (options.window < 2) throw std::invalid_argument("window must be >= 2");
  if (options.relearn_every == 0) {
    throw std::invalid_argument("relearn_every must be >= 1");
  }
  options.lia.variance.negatives =
      resolve_negative_policy(options.lia.variance, r.rows())
          ? NegativeCovariancePolicy::kDrop
          : NegativeCovariancePolicy::kKeep;
  if (options.accumulator == CovarianceAccumulator::kSharingPairs &&
      options.lia.variance.negatives != NegativeCovariancePolicy::kDrop) {
    throw std::invalid_argument(
        "the sharing-pair accumulator requires the drop-negative policy");
  }
  return options;
}

// The accumulator the policy reads from: the ring alone under keep-all
// (its closed form reads only the snapshots); the pair-indexed one over
// `store` (non-null exactly under kSharingPairs) or the dense one under
// drop-negative.
std::unique_ptr<stats::WindowAccumulator> make_accumulator(
    const MonitorOptions& options, std::size_t paths,
    std::shared_ptr<const SharingPairStore> store) {
  const stats::StreamingMomentsOptions window{
      .window = options.window,
      .refresh_every = options.refresh_every,
      .threads = options.lia.variance.threads};
  if (options.lia.variance.negatives != NegativeCovariancePolicy::kDrop) {
    return std::make_unique<stats::SnapshotRing>(paths, window);
  }
  if (store) {
    return std::make_unique<PairMoments>(std::move(store), paths, window);
  }
  return std::make_unique<stats::StreamingMoments>(paths, window);
}

// Path churn needs the per-pair drop bookkeeping of the drop-negative
// policy.
void require_drop_negative(const MonitorOptions& options) {
  if (options.lia.variance.negatives != NegativeCovariancePolicy::kDrop) {
    throw std::logic_error("path churn requires the drop-negative policy");
  }
}

// A NaN or infinity would poison the window statistics until the next
// drift refresh (and a NaN covariance passes the drop-negative test), so
// snapshots are checked before any state changes.
void require_finite(std::span<const double> values) {
  if (!std::all_of(values.begin(), values.end(),
                   [](double v) { return std::isfinite(v); })) {
    throw std::invalid_argument("snapshot has a non-finite entry");
  }
}

void save_estimate(io::CheckpointWriter& writer, const VarianceEstimate& e) {
  writer.begin_section(io::tags::kVarianceEstimate);
  writer.doubles(e.v);
  writer.str(e.method);
  writer.usize(e.equations_used);
  writer.usize(e.equations_dropped);
  writer.usize(e.negative_clamped);
  writer.f64(e.jitter_used);
  writer.usize(e.links_pinned);
  writer.end_section();
}

VarianceEstimate restore_estimate(io::CheckpointReader& reader) {
  reader.expect_section(io::tags::kVarianceEstimate);
  VarianceEstimate e;
  e.v = reader.doubles();
  e.method = reader.str();
  e.equations_used = reader.usize();
  e.equations_dropped = reader.usize();
  e.negative_clamped = reader.usize();
  e.jitter_used = reader.f64();
  e.links_pinned = reader.usize();
  reader.end_section();
  return e;
}

}  // namespace

LiaMonitor::LiaMonitor(linalg::SparseBinaryMatrix r, MonitorOptions options)
    : options_(resolve_monitor_options(std::move(options), r)),
      r_(std::move(r)),
      store_(options_.accumulator == CovarianceAccumulator::kSharingPairs
                 ? std::make_shared<SharingPairStore>(SharingPairStore::build(
                       r_, options_.lia.variance.threads))
                 : nullptr),
      accumulator_(make_accumulator(options_, r_.rows(), store_)),
      // Throws std::invalid_argument for VarianceMethod::kDenseQr.
      equations_(store_ ? StreamingNormalEquations(r_, options_.lia.variance,
                                                   store_)
                        : StreamingNormalEquations(r_, options_.lia.variance)) {
  active_.assign(r_.rows(), 1);
  activated_tick_.assign(r_.rows(), 0);
  if (options_.telemetry != nullptr) {
    obs_ = std::make_unique<Telemetry>(*options_.telemetry);
    publish_telemetry();
  }
}

LiaMonitor::LiaMonitor(LiaMonitor&&) = default;
LiaMonitor& LiaMonitor::operator=(LiaMonitor&&) = default;
LiaMonitor::~LiaMonitor() = default;

void LiaMonitor::publish_telemetry() {
  if (!obs_) return;
  Telemetry& t = *obs_;
  t.ticks->set(ticks_);
  t.paths->set(static_cast<double>(r_.rows()));
  t.links->set(static_cast<double>(r_.cols()));
  t.active_paths->set(static_cast<double>(active_path_count()));
  t.window_fill->set(static_cast<double>(accumulator_->count()));
  t.rank1_updates->set(equations_.rank1_updates());
  t.refactorizations->set(equations_.refactorizations());
  t.pin_updates->set(equations_.pin_updates());
  t.pcg_iterations->set(equations_.refine_iterations());
  t.downdate_fallbacks->set(equations_.downdate_fallbacks());
  t.links_grown->set(equations_.links_grown());
  t.links_pinned->set(static_cast<double>(equations_.links_pinned()));
  t.pending_flips->set(static_cast<double>(equations_.pending_flips()));
  if (store_) t.pairs->set(store_->pair_count());
  if (variance_) {
    t.equations_used->set(static_cast<double>(variance_->equations_used));
    t.equations_dropped->set(static_cast<double>(variance_->equations_dropped));
    t.negative_clamped->set(static_cast<double>(variance_->negative_clamped));
  }
}

const VarianceEstimate& LiaMonitor::variances() const {
  if (!variance_) throw std::logic_error("variances unavailable before learn");
  return *variance_;
}

std::size_t LiaMonitor::active_path_count() const {
  std::size_t count = 0;
  for (const auto a : active_) count += a != 0;
  return count;
}

void LiaMonitor::set_path_active(std::size_t path, bool active) {
  if (path >= r_.rows()) throw std::invalid_argument("path out of range");
  require_drop_negative(options_);
  if ((active_[path] != 0) == active) return;
  active_[path] = active ? 1 : 0;
  if (active) activated_tick_[path] = ticks_;
  active_dirty_ = true;
  // Phase 2 must never run against a stale active set: force a relearn at
  // the next diagnosing tick.
  since_learn_ = options_.relearn_every;
  equations_.set_path_live(path, active);
  if (active) {
    accumulator_->activate_path(path);
  } else {
    accumulator_->retire_path(path);
  }
}

std::size_t LiaMonitor::add_path(std::vector<std::uint32_t> links) {
  std::vector<std::vector<std::uint32_t>> rows;
  rows.push_back(std::move(links));
  return add_paths(std::move(rows));
}

std::size_t LiaMonitor::add_paths(std::vector<std::vector<std::uint32_t>> rows,
                                  std::size_t new_links) {
  require_drop_negative(options_);
  if (rows.empty()) {
    throw std::invalid_argument("add_paths needs at least one row");
  }
  const std::size_t index = r_.rows();
  const std::size_t count = rows.size();
  r_.append_rows(new_links, std::move(rows));  // validates the rows
  active_.resize(index + count, 1);
  activated_tick_.resize(index + count, ticks_);
  active_dirty_ = true;
  since_learn_ = options_.relearn_every;
  // Order matters with a shared store: the equations grow the link basis
  // and the store, then the accumulator aligns its pair values to it.
  equations_.grow_links(new_links);
  equations_.add_paths(r_, count);
  accumulator_->add_paths(count);
  if (obs_) obs_->registry->note("monitor.grow");
  return index;
}

void LiaMonitor::rebuild_active() {
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

void LiaMonitor::relearn() {
  rebuild_active();
  equations_.refresh(*accumulator_);
  variance_ = equations_.solve();
  elimination_ = eliminate_low_variance_links(*active_r_, variance_->v,
                                              options_.lia.elimination);
}

std::optional<LossInference> LiaMonitor::observe(std::span<const double> y) {
  if (y.size() != r_.rows()) {
    throw std::invalid_argument("snapshot size");
  }
  require_finite(y);
  return tick(y);
}

void LiaMonitor::observe_block(std::span<const double> values,
                               std::size_t rows,
                               const InferenceFn& on_inference) {
  const std::size_t np = r_.rows();
  if (values.size() != rows * np) {
    throw std::invalid_argument("observe_block size != rows * paths");
  }
  require_finite(values);
  for (std::size_t r = 0; r < rows; ++r) {
    obs::Span tick_span(obs_ ? obs_->registry : nullptr,
                        obs_ ? obs_->tick_phase : 0);
    const auto inference = tick(values.subspan(r * np, np));
    if (on_inference && inference) on_inference(ticks_ - 1, *inference);
  }
}

std::optional<LossInference> LiaMonitor::tick(std::span<const double> y) {
  ++ticks_;
  std::optional<LossInference> result;
  if (accumulator_->count() == options_.window) {
    // Window full: (re)learn if due, then diagnose this snapshot using the
    // PRECEDING window only (the paper's m-then-(m+1) split).
    if (!variance_ || ++since_learn_ >= options_.relearn_every) {
      obs::Span solve_span(obs_ ? obs_->registry : nullptr,
                           obs_ ? obs_->solve_phase : 0);
      relearn();
      since_learn_ = 0;
    }
    linalg::Vector y_active(active_rows_.size());
    for (std::size_t idx = 0; idx < active_rows_.size(); ++idx) {
      y_active[idx] = y[active_rows_[idx]];
    }
    result = infer_snapshot_losses(*active_r_, *elimination_, y_active);
  }
  // Every snapshot enters the window — also between relearns — so a
  // delayed relearn sees the full intermediate history.
  {
    obs::Span accumulate_span(obs_ ? obs_->registry : nullptr,
                              obs_ ? obs_->accumulate_phase : 0);
    accumulator_->push(y);
  }
  publish_telemetry();
  return result;
}

void LiaMonitor::save_state(io::CheckpointWriter& writer) const {
  writer.begin_section(io::tags::kMonitor);
  // Configuration fingerprint — everything a divergent restore target
  // could silently disagree on.
  writer.usize(options_.window);
  writer.usize(options_.relearn_every);
  writer.u8(static_cast<std::uint8_t>(options_.accumulator));
  writer.boolean(options_.lia.variance.negatives ==
                 NegativeCovariancePolicy::kDrop);
  writer.usize(options_.refresh_every);
  // The grown routing matrix (the initial rows are its prefix).
  writer.usize(r_.cols());
  writer.usize(r_.rows());
  for (std::size_t i = 0; i < r_.rows(); ++i) writer.u32s(r_.row(i));
  writer.usize(ticks_);
  writer.usize(since_learn_);
  writer.u8s(active_);
  writer.sizes(activated_tick_);
  writer.boolean(variance_.has_value());
  if (variance_) save_estimate(writer, *variance_);
  if (store_) store_->save_state(writer);
  accumulator_->save_state(writer);
  equations_.save_state(writer, store_ != nullptr);
  writer.end_section();
}

void LiaMonitor::restore_state(io::CheckpointReader& reader) {
  reader.expect_section(io::tags::kMonitor);
  const std::size_t window = reader.usize();
  const std::size_t relearn_every = reader.usize();
  const auto accumulator = static_cast<CovarianceAccumulator>(reader.u8());
  const bool drop_negative = reader.boolean();
  const std::size_t refresh_every = reader.usize();
  if (window != options_.window || relearn_every != options_.relearn_every ||
      accumulator != options_.accumulator ||
      drop_negative != (options_.lia.variance.negatives ==
                        NegativeCovariancePolicy::kDrop) ||
      refresh_every != options_.refresh_every) {
    throw io::CheckpointError(
        io::CheckpointErrorKind::kMismatch,
        "monitor configuration differs from the checkpointed one");
  }
  // Rebuild the grown routing matrix and verify the constructed monitor's
  // initial routing is its prefix.
  const std::size_t cols = reader.usize();
  const std::size_t nrows = reader.usize();
  if (nrows > reader.remaining() / 8) {
    throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                              "routing row count exceeds the payload");
  }
  std::vector<std::vector<std::uint32_t>> rows(nrows);
  for (auto& row : rows) {
    const std::vector<std::uint32_t> links = reader.u32s();
    row.assign(links.begin(), links.end());
  }
  if (cols < r_.cols() || nrows < r_.rows()) {
    throw io::CheckpointError(
        io::CheckpointErrorKind::kMismatch,
        "checkpointed routing matrix is smaller than the monitor's");
  }
  std::optional<linalg::SparseBinaryMatrix> new_r;
  try {
    new_r.emplace(cols, std::move(rows));
  } catch (const std::exception& e) {
    throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                              std::string("routing matrix: ") + e.what());
  }
  for (std::size_t i = 0; i < r_.rows(); ++i) {
    const auto mine = r_.row(i);
    const auto theirs = new_r->row(i);
    if (!std::equal(mine.begin(), mine.end(), theirs.begin(), theirs.end())) {
      throw io::CheckpointError(
          io::CheckpointErrorKind::kMismatch,
          "checkpointed routing does not extend the monitor's routing");
    }
  }
  const std::size_t ticks = reader.usize();
  const std::size_t since_learn = reader.usize();
  std::vector<std::uint8_t> active = reader.u8s();
  std::vector<std::size_t> activated_tick = reader.sizes();
  if (active.size() != nrows || activated_tick.size() != nrows) {
    throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                              "activation ledger size != path count");
  }
  std::optional<VarianceEstimate> estimate;
  if (reader.boolean()) estimate = restore_estimate(reader);
  if (estimate && estimate->v.size() != cols) {
    throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                              "variance estimate has wrong size");
  }

  // Reconstruct the engine stack over the restored routing, restore its
  // serialized state into the fresh objects, and only then commit.
  std::shared_ptr<SharingPairStore> store;
  if (store_) {
    store = std::make_shared<SharingPairStore>();
    store->restore_state(reader);
    if (store->path_count() != nrows) {
      throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                                "pair store path count != routing rows");
    }
  }
  std::unique_ptr<stats::WindowAccumulator> acc =
      make_accumulator(options_, nrows, store);
  acc->restore_state(reader);
  StreamingNormalEquations equations =
      store ? StreamingNormalEquations(*new_r, options_.lia.variance, store)
            : StreamingNormalEquations(*new_r, options_.lia.variance);
  equations.restore_state(reader, store);
  reader.end_section();

  // Commit (non-throwing moves), then recompute the derived Phase-2 state.
  r_ = std::move(*new_r);
  ticks_ = ticks;
  since_learn_ = since_learn;
  active_ = std::move(active);
  activated_tick_ = std::move(activated_tick);
  active_dirty_ = true;
  active_rows_.clear();
  active_r_.reset();
  store_ = std::move(store);
  accumulator_ = std::move(acc);
  equations_ = std::move(equations);
  variance_ = std::move(estimate);
  elimination_.reset();
  if (variance_) {
    rebuild_active();
    elimination_ = eliminate_low_variance_links(*active_r_, variance_->v,
                                                options_.lia.elimination);
  }
  if (obs_) {
    // The engine stack was rebuilt: drop a marker and republish from the
    // restored state.
    obs_->registry->note("monitor.restore");
    publish_telemetry();
  }
}

}  // namespace losstomo::core

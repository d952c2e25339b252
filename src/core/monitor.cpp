#include "core/monitor.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "io/checkpoint.hpp"
#include "io/checkpoint_tags.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

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

// Freeze the negative-covariance policy on the construction-time path set:
// churned relearns run over active submatrices whose row count may cross
// the kAuto pairwise cap, and the streaming and batch engines must resolve
// the policy identically for parity.
MonitorOptions resolve_monitor_options(MonitorOptions options,
                                       const linalg::SparseBinaryMatrix& r) {
  options.lia.variance.negatives =
      resolve_negative_policy(options.lia.variance, r.rows())
          ? NegativeCovariancePolicy::kDrop
          : NegativeCovariancePolicy::kKeep;
  return options;
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
      engine_(options_.engine),
      r_(std::move(r)),
      lia_(r_, options_.lia) {
  if (options_.window < 2) throw std::invalid_argument("window must be >= 2");
  if (options_.relearn_every == 0) {
    throw std::invalid_argument("relearn_every must be >= 1");
  }
  // The streaming solve covers the normal-equation methods; the paper-exact
  // dense QR needs the materialised batch system.
  if (options_.lia.variance.method == VarianceMethod::kDenseQr) {
    engine_ = MonitorEngine::kBatch;
  }
  const bool drop_negative =
      options_.lia.variance.negatives == NegativeCovariancePolicy::kDrop;
  if (options_.accumulator == CovarianceAccumulator::kSharingPairs &&
      (engine_ != MonitorEngine::kStreaming || !drop_negative)) {
    throw std::invalid_argument(
        "the sharing-pair accumulator requires the streaming engine with "
        "the drop-negative policy");
  }
  if (engine_ == MonitorEngine::kStreaming) {
    const stats::StreamingMomentsOptions accumulator_options{
        .window = options_.window,
        .refresh_every = options_.refresh_every,
        .threads = options_.lia.variance.threads};
    if (options_.accumulator == CovarianceAccumulator::kSharingPairs) {
      store_ = std::make_shared<SharingPairStore>(
          SharingPairStore::build(r_, options_.lia.variance.threads));
      pair_accumulator_.emplace(store_, r_.rows(), accumulator_options);
      equations_.emplace(r_, options_.lia.variance, store_);
    } else {
      accumulator_.emplace(r_.rows(), accumulator_options);
      equations_.emplace(r_, options_.lia.variance);
    }
  }
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
  t.window_fill->set(static_cast<double>(window_fill()));
  if (equations_) {
    t.rank1_updates->set(equations_->rank1_updates());
    t.refactorizations->set(equations_->refactorizations());
    t.pin_updates->set(equations_->pin_updates());
    t.pcg_iterations->set(equations_->refine_iterations());
    t.downdate_fallbacks->set(equations_->downdate_fallbacks());
    t.links_grown->set(equations_->links_grown());
    t.links_pinned->set(static_cast<double>(equations_->links_pinned()));
    t.pending_flips->set(static_cast<double>(equations_->pending_flips()));
  }
  if (store_) t.pairs->set(store_->pair_count());
  const VarianceEstimate* estimate = nullptr;
  if (churn_ && churn_variance_) {
    estimate = &*churn_variance_;
  } else if (lia_.trained()) {
    estimate = &lia_.variances();
  }
  if (estimate != nullptr) {
    t.equations_used->set(static_cast<double>(estimate->equations_used));
    t.equations_dropped->set(static_cast<double>(estimate->equations_dropped));
    t.negative_clamped->set(static_cast<double>(estimate->negative_clamped));
  }
}

std::size_t LiaMonitor::window_fill() const {
  if (engine_ != MonitorEngine::kStreaming) return window_.size();
  return streaming_source().count();
}

const stats::CovarianceSource& LiaMonitor::streaming_source() const {
  if (pair_accumulator_) return *pair_accumulator_;
  return *accumulator_;
}

void LiaMonitor::push_snapshot(std::span<const double> y) {
  if (engine_ == MonitorEngine::kStreaming) {
    if (pair_accumulator_) {
      pair_accumulator_->push(y);
    } else {
      accumulator_->push(y);
    }
    return;
  }
  window_.emplace_back(y.begin(), y.end());
  if (window_.size() > options_.window) window_.pop_front();
}

bool LiaMonitor::path_full(std::size_t i) const {
  if (!active_[i]) return false;
  const std::size_t fill = window_fill();
  // Snapshots pushed so far = ticks_ - 1 inside a relearn (the current
  // snapshot enters the window after diagnosis) — the exact mirror of the
  // accumulators' samples() bookkeeping.
  return fill > 0 && ticks_ - 1 - activated_tick_[i] >= fill;
}

const VarianceEstimate& LiaMonitor::variances() const {
  if (churn_ && churn_variance_) return *churn_variance_;
  return lia_.variances();
}

std::size_t LiaMonitor::active_path_count() const {
  std::size_t count = 0;
  for (const auto a : active_) count += a != 0;
  return count;
}

void LiaMonitor::set_path_active(std::size_t path, bool active) {
  if (path >= r_.rows()) throw std::invalid_argument("path out of range");
  if (engine_ == MonitorEngine::kStreaming &&
      options_.lia.variance.negatives != NegativeCovariancePolicy::kDrop) {
    throw std::logic_error(
        "streaming path churn requires the drop-negative policy");
  }
  if ((active_[path] != 0) == active) return;
  churn_ = true;
  active_[path] = active ? 1 : 0;
  if (active) activated_tick_[path] = ticks_;
  active_dirty_ = true;
  // Phase 2 must never run against a stale active set: force a relearn at
  // the next diagnosing tick.
  since_learn_ = options_.relearn_every;
  if (engine_ == MonitorEngine::kStreaming) {
    equations_->set_path_live(path, active);
    if (pair_accumulator_) {
      if (active) {
        pair_accumulator_->activate_path(path);
      } else {
        pair_accumulator_->retire_path(path);
      }
    } else {
      if (active) {
        accumulator_->activate_path(path);
      } else {
        accumulator_->retire_path(path);
      }
    }
  }
}

std::size_t LiaMonitor::add_path(std::vector<std::uint32_t> links) {
  std::vector<std::vector<std::uint32_t>> rows;
  rows.push_back(std::move(links));
  return add_paths(std::move(rows));
}

std::size_t LiaMonitor::add_paths(std::vector<std::vector<std::uint32_t>> rows,
                                  std::size_t new_links) {
  if (engine_ == MonitorEngine::kStreaming &&
      options_.lia.variance.negatives != NegativeCovariancePolicy::kDrop) {
    throw std::logic_error(
        "streaming path churn requires the drop-negative policy");
  }
  if (rows.empty()) {
    throw std::invalid_argument("add_paths needs at least one row");
  }
  const std::size_t index = r_.rows();
  const std::size_t count = rows.size();
  r_.append_rows(new_links, std::move(rows));  // validates the rows
  churn_ = true;
  active_.resize(index + count, 1);
  activated_tick_.resize(index + count, ticks_);
  active_dirty_ = true;
  since_learn_ = options_.relearn_every;
  if (engine_ == MonitorEngine::kStreaming) {
    // Order matters with a shared store: the equations grow the link basis
    // and the store, then the accumulator aligns its pair values to it.
    equations_->grow_links(new_links);
    equations_->add_paths(r_, count);
    if (pair_accumulator_) {
      pair_accumulator_->add_paths(count);
    } else {
      accumulator_->add_paths(count);
    }
  }
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

void LiaMonitor::relearn_batch() {
  stats::SnapshotMatrix history(r_.rows(), options_.window);
  for (std::size_t l = 0; l < options_.window; ++l) {
    const auto& y = window_[l];
    std::copy(y.begin(), y.end(), history.sample(l).begin());
  }
  lia_.learn(history);
}

void LiaMonitor::relearn_churn() {
  rebuild_active();
  if (engine_ == MonitorEngine::kStreaming) {
    equations_->refresh(streaming_source());
    churn_variance_ = equations_->solve();
  } else {
    // Batch reference: estimate from the active paths whose window entries
    // are all real measurements — the exact set whose pairs the streaming
    // engine reports ready.
    std::vector<std::uint32_t> full_rows;
    std::vector<std::vector<std::uint32_t>> rows;
    for (std::size_t i = 0; i < r_.rows(); ++i) {
      if (!active_[i] || !path_full(i)) continue;
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
    linalg::SparseBinaryMatrix sub(r_.cols(), std::move(rows));
    stats::SnapshotMatrix history(full_rows.size(), options_.window);
    for (std::size_t l = 0; l < options_.window; ++l) {
      const auto& y = window_[l];
      for (std::size_t idx = 0; idx < full_rows.size(); ++idx) {
        history.at(l, idx) = y[full_rows[idx]];
      }
    }
    churn_variance_ =
        estimate_link_variances(sub, history, options_.lia.variance);
  }
  churn_elimination_ = eliminate_low_variance_links(
      *active_r_, churn_variance_->v, options_.lia.elimination);
}

std::optional<LossInference> LiaMonitor::observe_churn(
    std::span<const double> y) {
  std::optional<LossInference> result;
  if (window_fill() == options_.window) {
    obs::Span solve_span(obs_ ? obs_->registry : nullptr,
                         obs_ ? obs_->solve_phase : 0);
    if (!churn_variance_ || ++since_learn_ >= options_.relearn_every) {
      relearn_churn();
      since_learn_ = 0;
    }
    if (churn_variance_ && churn_elimination_) {
      linalg::Vector y_active(active_rows_.size());
      for (std::size_t idx = 0; idx < active_rows_.size(); ++idx) {
        y_active[idx] = y[active_rows_[idx]];
      }
      result =
          infer_snapshot_losses(*active_r_, *churn_elimination_, y_active);
    }
  }
  {
    obs::Span accumulate_span(obs_ ? obs_->registry : nullptr,
                              obs_ ? obs_->accumulate_phase : 0);
    push_snapshot(y);
  }
  publish_telemetry();
  return result;
}

void LiaMonitor::observe_block(std::span<const double> values,
                               std::size_t rows,
                               const InferenceFn& on_inference) {
  const std::size_t np = r_.rows();
  if (values.size() != rows * np) {
    throw std::invalid_argument("observe_block size != rows * paths");
  }
  for (std::size_t r = 0; r < rows; ++r) {
    obs::Span tick_span(obs_ ? obs_->registry : nullptr,
                        obs_ ? obs_->tick_phase : 0);
    const auto inference = observe(values.subspan(r * np, np));
    if (on_inference && inference) on_inference(ticks_ - 1, *inference);
  }
}

std::optional<LossInference> LiaMonitor::observe(std::span<const double> y) {
  if (y.size() != r_.rows()) {
    throw std::invalid_argument("snapshot size");
  }
  ++ticks_;
  if (churn_) return observe_churn(y);

  const bool streaming = engine_ == MonitorEngine::kStreaming;
  std::optional<LossInference> result;
  if (window_fill() == options_.window) {
    // Window full: (re)learn if due, then diagnose this snapshot using the
    // PRECEDING window only (the paper's m-then-(m+1) split).
    if (!lia_.trained() || ++since_learn_ >= options_.relearn_every) {
      obs::Span solve_span(obs_ ? obs_->registry : nullptr,
                           obs_ ? obs_->solve_phase : 0);
      if (streaming) {
        equations_->refresh(streaming_source());
        lia_.adopt(equations_->solve());
      } else {
        relearn_batch();
      }
      since_learn_ = 0;
    }
    result = lia_.infer(y);
  }
  // Every snapshot enters the window — also between relearns — so a
  // delayed relearn sees the full intermediate history.
  {
    obs::Span accumulate_span(obs_ ? obs_->registry : nullptr,
                              obs_ ? obs_->accumulate_phase : 0);
    push_snapshot(y);
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
  writer.u8(static_cast<std::uint8_t>(engine_));
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
  writer.boolean(churn_);
  writer.u8s(active_);
  writer.sizes(activated_tick_);
  writer.boolean(lia_.trained());
  if (lia_.trained()) save_estimate(writer, lia_.variances());
  writer.boolean(churn_variance_.has_value());
  if (churn_variance_) save_estimate(writer, *churn_variance_);
  if (engine_ == MonitorEngine::kStreaming) {
    const bool shared_store = store_ != nullptr;
    if (shared_store) store_->save_state(writer);
    if (pair_accumulator_) {
      pair_accumulator_->save_state(writer);
    } else {
      accumulator_->save_state(writer);
    }
    equations_->save_state(writer, shared_store);
  } else {
    writer.usize(window_.size());
    for (const auto& y : window_) writer.doubles(y);
  }
  writer.end_section();
}

void LiaMonitor::restore_state(io::CheckpointReader& reader) {
  reader.expect_section(io::tags::kMonitor);
  const std::size_t window = reader.usize();
  const std::size_t relearn_every = reader.usize();
  const auto engine = static_cast<MonitorEngine>(reader.u8());
  const auto accumulator = static_cast<CovarianceAccumulator>(reader.u8());
  const bool drop_negative = reader.boolean();
  const std::size_t refresh_every = reader.usize();
  if (window != options_.window || relearn_every != options_.relearn_every ||
      engine != engine_ || accumulator != options_.accumulator ||
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
  const bool churn = reader.boolean();
  std::vector<std::uint8_t> active = reader.u8s();
  std::vector<std::size_t> activated_tick = reader.sizes();
  if (active.size() != nrows || activated_tick.size() != nrows) {
    throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                              "activation ledger size != path count");
  }
  std::optional<VarianceEstimate> lia_estimate;
  if (reader.boolean()) lia_estimate = restore_estimate(reader);
  if (lia_estimate && lia_estimate->v.size() != lia_.routing().cols()) {
    throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                              "adopted variance estimate has wrong size");
  }
  std::optional<VarianceEstimate> churn_estimate;
  if (reader.boolean()) churn_estimate = restore_estimate(reader);
  if (churn_estimate && churn_estimate->v.size() != cols) {
    throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                              "churn variance estimate has wrong size");
  }

  // Reconstruct the engine stack over the restored routing, restore its
  // serialized state into the fresh objects, and only then commit.
  std::shared_ptr<SharingPairStore> store;
  std::optional<stats::StreamingMoments> acc;
  std::optional<PairMoments> pair_acc;
  std::optional<StreamingNormalEquations> equations;
  std::deque<linalg::Vector> batch_window;
  if (engine_ == MonitorEngine::kStreaming) {
    const stats::StreamingMomentsOptions accumulator_options{
        .window = options_.window,
        .refresh_every = options_.refresh_every,
        .threads = options_.lia.variance.threads};
    if (options_.accumulator == CovarianceAccumulator::kSharingPairs) {
      store = std::make_shared<SharingPairStore>();
      store->restore_state(reader);
      if (store->path_count() != nrows) {
        throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                                  "pair store path count != routing rows");
      }
      pair_acc.emplace(store, nrows, accumulator_options);
      pair_acc->restore_state(reader);
      equations.emplace(*new_r, options_.lia.variance, store);
      equations->restore_state(reader, store);
    } else {
      acc.emplace(nrows, accumulator_options);
      acc->restore_state(reader);
      equations.emplace(*new_r, options_.lia.variance);
      equations->restore_state(reader, nullptr);
    }
  } else {
    const std::size_t stored = reader.usize();
    if (stored > options_.window) {
      throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                                "batch window larger than configured");
    }
    for (std::size_t l = 0; l < stored; ++l) {
      batch_window.emplace_back(reader.doubles());
      if (batch_window.back().size() != nrows) {
        throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                                  "batch window snapshot has wrong size");
      }
    }
  }
  reader.end_section();

  // Commit (non-throwing moves), then recompute the derived Phase-2 state.
  r_ = std::move(*new_r);
  ticks_ = ticks;
  since_learn_ = since_learn;
  churn_ = churn;
  active_ = std::move(active);
  activated_tick_ = std::move(activated_tick);
  active_dirty_ = true;
  active_rows_.clear();
  active_r_.reset();
  window_ = std::move(batch_window);
  store_ = std::move(store);
  accumulator_ = std::move(acc);
  pair_accumulator_ = std::move(pair_acc);
  equations_ = std::move(equations);
  if (lia_estimate) lia_.adopt(std::move(*lia_estimate));
  if (churn_ && churn_estimate) {
    churn_variance_ = std::move(churn_estimate);
    rebuild_active();
    churn_elimination_ = eliminate_low_variance_links(
        *active_r_, churn_variance_->v, options_.lia.elimination);
  } else {
    churn_variance_.reset();
    churn_elimination_.reset();
  }
  if (obs_) {
    // The engine stack was rebuilt: drop a marker and republish from the
    // restored state.
    obs_->registry->note("monitor.restore");
    publish_telemetry();
  }
}

}  // namespace losstomo::core

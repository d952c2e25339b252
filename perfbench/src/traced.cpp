// The traced run: LiaMonitor's streaming tick (default options: the dense
// stats::StreamingMoments accumulator, core::StreamingNormalEquations and
// the Lia Phase-2 facade), rebuilt call for call from the layers' public
// functions so each call can be timed from here.  Its inferences must be
// bit-identical to the monitor's; main() checks that.
#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>

#include "core/lia.hpp"
#include "core/monitor.hpp"
#include "feed.hpp"
#include "io/pipeline.hpp"
#include "runs.hpp"
#include "stats/streaming.hpp"

namespace perfbench {

using namespace losstomo;

namespace {

using Clock = std::chrono::steady_clock;
using Slots = std::array<double, kLayerCount>;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Adds the scope's duration to one layer's slot of the current tick.
class Span {
 public:
  explicit Span(double& slot) : slot_(&slot), start_(Clock::now()) {}
  ~Span() { *slot_ += since(start_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double* slot_;
  Clock::time_point start_;
};

// Keeps a copy of the last row pushed down the pipeline.
class Capture final : public io::Element {
 public:
  void do_push(const io::SnapshotBatch& batch) override {
    row_.assign(batch.values.begin(), batch.values.end());
  }
  [[nodiscard]] std::span<const double> row() const { return row_; }

 private:
  std::vector<double> row_;
};

// LiaMonitor::observe / observe_churn / set_path_active / add_paths for the
// streaming engine with the dense accumulator and relearn_every = 1.
class TracedMonitor {
 public:
  TracedMonitor(const linalg::SparseBinaryMatrix& r, std::size_t window)
      : options_(resolve(r, window)),
        r_(r),
        lia_(r_, options_.lia),
        acc_(r_.rows(), {.window = options_.window,
                         .refresh_every = options_.refresh_every,
                         .threads = options_.lia.variance.threads}),
        equations_(r_, options_.lia.variance),
        ledger_(r_.rows()) {}

  [[nodiscard]] const ChurnLedger& ledger() const { return ledger_; }
  [[nodiscard]] const core::StreamingNormalEquations& equations() const {
    return equations_;
  }

  void set_path_active(std::size_t path, bool active) {
    if ((ledger_.active[path] != 0) == active) return;
    churn_ = true;
    ledger_.apply({.kind = active ? ChurnEvent::Kind::kJoin
                                  : ChurnEvent::Kind::kLeave,
                   .path = path},
                  ticks_);
    active_dirty_ = true;
    equations_.set_path_live(path, active);
    if (active) {
      acc_.activate_path(path);
    } else {
      acc_.retire_path(path);
    }
  }

  void add_paths(const ChurnEvent& grow) {
    const std::size_t count = grow.rows.size();
    r_.append_rows(0, grow.rows);
    churn_ = true;
    ledger_.apply(grow, ticks_);
    active_dirty_ = true;
    equations_.grow_links(0);
    equations_.add_paths(r_, count);
    acc_.add_paths(count);
  }

  // `t` receives this tick's layer times; `out` (when set) the per-tick
  // layer statistics.
  std::optional<core::LossInference> observe(std::span<const double> y,
                                             Slots& t, TracedResult* out) {
    ++ticks_;
    std::optional<core::LossInference> result;
    if (acc_.count() == options_.window) {
      if (churn_) {
        result = relearn_and_infer_churn(y, t, out);
      } else {
        {
          Span span(t[kRefresh]);
          equations_.refresh(acc_);
        }
        note_refresh(out);
        core::VarianceEstimate estimate;
        {
          Span span(t[kSolve]);
          estimate = equations_.solve();
        }
        {
          Span span(t[kEliminate]);
          lia_.adopt(std::move(estimate));
        }
        note_kept(lia_.elimination().kept, out);
        Span span(t[kInfer]);
        result = lia_.infer(y);
      }
    }
    const std::size_t refreshes = acc_.refreshes();
    const auto start = Clock::now();
    acc_.push(y);
    const double pushed = since(start);
    t[kAccumulate] += pushed;
    if (out != nullptr && acc_.refreshes() != refreshes) {
      ++out->drift_refreshes;
      out->drift_push_s.push_back(pushed);
    }
    return result;
  }

 private:
  static core::MonitorOptions resolve(const linalg::SparseBinaryMatrix& r,
                                      std::size_t window) {
    core::MonitorOptions options;
    options.window = window;
    options.lia.variance.negatives =
        core::resolve_negative_policy(options.lia.variance, r.rows())
            ? core::NegativeCovariancePolicy::kDrop
            : core::NegativeCovariancePolicy::kKeep;
    return options;
  }

  std::optional<core::LossInference> relearn_and_infer_churn(
      std::span<const double> y, Slots& t, TracedResult* out) {
    {
      Span span(t[kEliminate]);
      rebuild_active();
    }
    {
      Span span(t[kRefresh]);
      equations_.refresh(acc_);
    }
    note_refresh(out);
    {
      Span span(t[kSolve]);
      churn_variance_ = equations_.solve();
    }
    {
      Span span(t[kEliminate]);
      churn_elimination_ = core::eliminate_low_variance_links(
          *active_r_, churn_variance_->v, options_.lia.elimination);
    }
    note_kept(churn_elimination_->kept, out);
    Span span(t[kInfer]);
    linalg::Vector y_active(active_rows_.size());
    for (std::size_t k = 0; k < active_rows_.size(); ++k) {
      y_active[k] = y[active_rows_[k]];
    }
    return core::infer_snapshot_losses(*active_r_, *churn_elimination_,
                                       y_active);
  }

  void rebuild_active() {
    if (!active_dirty_ && active_r_) return;
    active_rows_.clear();
    std::vector<std::vector<std::uint32_t>> rows;
    for (std::size_t i = 0; i < r_.rows(); ++i) {
      if (ledger_.active[i] == 0) continue;
      active_rows_.push_back(static_cast<std::uint32_t>(i));
      const auto row = r_.row(i);
      rows.emplace_back(row.begin(), row.end());
    }
    active_r_.emplace(r_.cols(), std::move(rows));
    active_dirty_ = false;
  }

  void note_refresh(TracedResult* out) const {
    if (out == nullptr) return;
    out->pending_flips.push_back(
        static_cast<double>(equations_.pending_flips()));
    out->equations_dropped.push_back(
        static_cast<double>(equations_.system().dropped));
  }

  void note_kept(const std::vector<std::uint32_t>& kept, TracedResult* out) {
    std::vector<std::uint32_t> sorted(kept);
    std::sort(sorted.begin(), sorted.end());
    if (out != nullptr) {
      out->kept.push_back(static_cast<double>(kept.size()));
      if (!previous_kept_.empty()) {
        ++out->kept_compared;
        if (sorted == previous_kept_) ++out->kept_unchanged;
      }
    }
    previous_kept_ = std::move(sorted);
  }

  core::MonitorOptions options_;
  linalg::SparseBinaryMatrix r_;
  core::Lia lia_;
  stats::StreamingMoments acc_;
  core::StreamingNormalEquations equations_;
  ChurnLedger ledger_;
  bool churn_ = false;
  bool active_dirty_ = true;
  std::vector<std::uint32_t> active_rows_;
  std::optional<linalg::SparseBinaryMatrix> active_r_;
  std::optional<core::VarianceEstimate> churn_variance_;
  std::optional<core::Elimination> churn_elimination_;
  std::vector<std::uint32_t> previous_kept_;
  std::size_t ticks_ = 0;
};

}  // namespace

TracedResult run_traced(const Inputs& inputs) {
  TracedResult out;
  const std::size_t first = inputs.first_steady_row();
  out.layer_s.resize(inputs.segments.size() * inputs.steady);
  out.tick_s.resize(out.layer_s.size());
  out.loss.resize(out.layer_s.size());
  std::size_t tick = 0;
  for (const Segment& segment : inputs.segments) {
    TracedMonitor monitor(inputs.routing, inputs.spec.window);
    io::BinaryTraceSource source(*segment.trace);
    io::LogTransform log;
    KnownRows known(monitor.ledger());
    Capture capture;
    if (inputs.spec.churn) {
      log.to(known).to(capture);
    } else {
      log.to(capture);
    }
    const auto pump = [&] {
      if (source.pump(log, 1) != 1) throw std::runtime_error("trace exhausted");
    };

    Slots unused{};
    for (std::size_t t = 0; t < first; ++t) {
      pump();
      monitor.observe(capture.row(), unused, nullptr);
    }

    const auto& eqs = monitor.equations();
    const std::size_t pcg0 = eqs.refine_iterations();
    const std::size_t refactor0 = eqs.refactorizations();
    const std::size_t rank1_0 = eqs.rank1_updates();
    const std::size_t fallback0 = eqs.downdate_fallbacks();
    for (std::size_t s = 0; s < inputs.steady; ++s, ++tick) {
      Slots& t = out.layer_s[tick];
      t.fill(0.0);
      const auto& events = segment.events[first + s];
      const auto tick_start = Clock::now();
      for (const auto& event : events) {
        const auto start = Clock::now();
        const bool grow = event.kind == ChurnEvent::Kind::kGrow;
        if (grow) {
          monitor.add_paths(event);
        } else {
          monitor.set_path_active(event.path,
                                  event.kind == ChurnEvent::Kind::kJoin);
        }
        const double took = since(start);
        (grow ? out.add_paths_s : out.set_path_active_s).push_back(took);
        t[kChurn] += took;
      }
      {
        Span span(t[kIo]);
        pump();
      }
      auto inference = monitor.observe(capture.row(), t, &out);
      out.tick_s[tick] = since(tick_start);
      if (!events.empty()) out.event_tick_s.push_back(out.tick_s[tick]);
      out.churn_events += events.size();
      if (inference) out.loss[tick] = std::move(inference->loss);
    }
    out.pcg_iterations += eqs.refine_iterations() - pcg0;
    out.refactorizations += eqs.refactorizations() - refactor0;
    out.rank1_updates += eqs.rank1_updates() - rank1_0;
    out.downdate_fallbacks += eqs.downdate_fallbacks() - fallback0;
  }
  return out;
}

}  // namespace perfbench

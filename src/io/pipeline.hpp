// Composable push-style ingestion pipeline — source → transforms → sink.
//
// PR 1–5 optimized the linear-algebra side of the steady tick; what was
// left in the hot loop was ingestion itself, hard-wired as "SnapshotStream
// tokenizes a text line, the caller logs it, the monitor observes it".
// Every new telemetry concern (thinning schedules, unit conversion, binary
// traces, direct simulator feeds) either grew a flag on that loop or
// leaked into LiaMonitor.
//
// This header restructures ingestion as a small element graph in the
// spirit of Click's composable router elements: a Source *pushes*
// contiguous row-major `[rows x paths]` batches of doubles through a chain
// of Elements, each of which transforms the batch (or drops rows) and
// emits downstream, until a sink folds it into a monitor, a trace file, or
// a test buffer.  Batches are handed around as spans — a
// BinaryTraceSource emits views STRAIGHT INTO the mmap, so a snapshot
// travels from the page cache into the streaming accumulators with zero
// copies and zero per-value parsing.  New transforms compose by insertion,
// never by touching LiaMonitor internals.
//
//   io::BinaryTraceReader reader = io::BinaryTraceReader::open(trace);
//   io::BinaryTraceSource source(reader);
//   io::LogTransform log;          // phi -> Y = log max(phi, 1e-9)
//   io::MonitorSink sink(monitor, [&](std::size_t tick,
//                                     const core::LossInference& inf) {
//     /* diagnose */
//   });
//   log.to(sink);
//   source.drain(log);             // push everything, then finish()
//
// Semantics contract: a pipeline is *state-identical* to the classic
// per-line loop.  LogTransform applies the exact expression SnapshotStream
// applies (`std::log(std::max(phi, 1e-9))`), and the blocked fold
// (LiaMonitor::observe_block) ticks row by row over the batch — so
// inferences from binary ingestion
// are bit-identical to the text path at any thread count (pinned by
// tests/io/pipeline_test).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "io/binary_trace.hpp"
#include "io/trace_io.hpp"

namespace losstomo::sim {
class SnapshotSimulator;
}  // namespace losstomo::sim

namespace losstomo::obs {
class Counter;
class Histogram;
class Registry;
}  // namespace losstomo::obs

namespace losstomo::io {

/// One contiguous row-major block of snapshots travelling down the
/// pipeline.  `values` holds rows * paths doubles and is only guaranteed
/// valid for the duration of the push — elements that buffer must copy.
struct SnapshotBatch {
  std::span<const double> values;
  std::size_t rows = 0;
  std::size_t paths = 0;
  /// False: raw path transmission rates phi in [0, 1] (what traces store).
  /// True: Y = log phi (what a monitor consumes).
  bool log_transformed = false;
};

/// A pipeline stage.  Receives batches via push(), emits transformed
/// batches downstream via emit(); finish() flushes and propagates
/// end-of-stream.  Elements are connected with to() and must outlive the
/// drain.  Single-threaded by design (sources push synchronously); the
/// parallelism lives inside the stages (LogTransform chunks its loop, the
/// accumulators parallelize their rank-1 folds).
class Element {
 public:
  virtual ~Element() = default;

  /// Consumes one batch: counts it into the attached telemetry (if any),
  /// then hands it to the stage's do_push().
  void push(const SnapshotBatch& batch);

  /// Attaches per-element ingestion telemetry: every pushed batch counts
  /// into `pipeline.<name>.rows` and `pipeline.<name>.bytes` in
  /// `registry` (nullptr detaches).  The push stream is single-threaded
  /// by the pipeline contract, so the counts are deterministic.
  void set_telemetry(obs::Registry* registry, std::string_view name);

  /// End-of-stream.  Default: propagate downstream (sinks override to
  /// seal files / flush state).
  virtual void finish();

  /// Connects this element's output to `next`; returns `next` so chains
  /// read left to right: `thin.to(log).to(sink)`.
  Element& to(Element& next) {
    next_ = &next;
    return next;
  }

 protected:
  /// Stage body.  Implementations transform the batch and call emit().
  virtual void do_push(const SnapshotBatch& batch) = 0;

  /// Forwards a batch downstream (no-op when nothing is connected, so a
  /// chain can be truncated for tests).
  void emit(const SnapshotBatch& batch) {
    if (next_ != nullptr) next_->push(batch);
  }
  void emit_finish() {
    if (next_ != nullptr) next_->finish();
  }

 private:
  Element* next_ = nullptr;
  obs::Counter* rows_counter_ = nullptr;
  obs::Counter* bytes_counter_ = nullptr;
};

/// Drives a pipeline: pump() pushes the next batch of up to `max_rows`
/// snapshots into `sink` and returns the row count (0 = exhausted);
/// drain() pumps to exhaustion and then finishes the chain.
class Source {
 public:
  virtual ~Source() = default;
  virtual std::size_t pump(Element& sink, std::size_t max_rows) = 0;

  /// Pushes everything through `first`, calls first.finish(), and returns
  /// the total snapshot count.  `block_rows` is the batching granularity —
  /// larger blocks amortize per-batch overhead (the default keeps a
  /// 5112-path block comfortably inside L2-resident strips).
  std::size_t drain(Element& first, std::size_t block_rows = 64);

  /// Attaches source-side telemetry: produced rows count into
  /// `pipeline.<name>.rows` and the production time of each pumped batch
  /// (parse / generate / slice — excluding the downstream fold) feeds the
  /// `pipeline.<name>.stall_seconds` histogram, the "how long does the
  /// monitor wait for input" signal.  nullptr detaches.
  void set_telemetry(obs::Registry* registry, std::string_view name);

 protected:
  /// Subclasses report each pumped batch: `rows` produced in `seconds` of
  /// source-side work.  Call only when telemetry_enabled().
  void note_produced(std::size_t rows, double seconds);
  [[nodiscard]] bool telemetry_enabled() const {
    return rows_counter_ != nullptr;
  }

 private:
  obs::Counter* rows_counter_ = nullptr;
  obs::Histogram* stall_histogram_ = nullptr;
};

// -- Sources ----------------------------------------------------------------

/// Zero-copy source over an open binary trace: every pumped batch is a
/// span directly into the reader's mapping.  The reader must outlive the
/// source.
class BinaryTraceSource final : public Source {
 public:
  explicit BinaryTraceSource(const BinaryTraceReader& reader)
      : reader_(&reader) {}
  std::size_t pump(Element& sink, std::size_t max_rows) override;

 private:
  const BinaryTraceReader* reader_;
  std::size_t cursor_ = 0;
};

/// Text-snapshot source: parses phi rows through SnapshotStream (same
/// validation, same 1-based line errors) and emits them as raw-phi
/// batches, so text and binary ingestion share every stage downstream.
/// The istream must outlive the source.
class TextSnapshotSource final : public Source {
 public:
  explicit TextSnapshotSource(std::istream& is);
  std::size_t pump(Element& sink, std::size_t max_rows) override;

 private:
  SnapshotStream stream_;
  std::vector<double> row_;
  std::vector<double> block_;
};

/// Simulator-driven source: each pump generates up to max_rows fresh
/// snapshots (sim::SnapshotSimulator::next) and emits their raw phi
/// measurements — the direct binary-emission path for
/// `lia_cli generate format=binary`.  The simulator must outlive the
/// source.
class SimulatorSource final : public Source {
 public:
  /// Emits exactly `snapshots` rows in total.
  SimulatorSource(sim::SnapshotSimulator& simulator, std::size_t snapshots);
  std::size_t pump(Element& sink, std::size_t max_rows) override;

 private:
  sim::SnapshotSimulator* simulator_;
  std::size_t remaining_;
  std::vector<double> block_;
};

// -- Transforms -------------------------------------------------------------

/// phi -> Y = log(max(phi, 1e-9)), the exact per-value expression
/// SnapshotStream applies, over the whole batch in one util::parallel-
/// chunked, auto-vectorizable pass.  Batches already marked
/// log_transformed pass through untouched, so a chain is safe against
/// double application.
class LogTransform final : public Element {
 public:
  /// `threads` = worker threads for the blocked pass (0 = library
  /// default).  Results are bit-identical at any count.
  explicit LogTransform(std::size_t threads = 0) : threads_(threads) {}
  void do_push(const SnapshotBatch& batch) override;

 private:
  std::size_t threads_;
  std::vector<double> buffer_;
};

/// Keeps every keep_every-th snapshot (the first row of the stream, then
/// one of each keep_every), dropping the rest — the thinning-schedule
/// stage (Rahman et al.: sampled telemetry as a first-class transform).
/// keep_every = 1 passes batches through whole (zero-copy).
class Thin final : public Element {
 public:
  explicit Thin(std::size_t keep_every);
  void do_push(const SnapshotBatch& batch) override;

 private:
  std::size_t keep_every_;
  std::size_t phase_ = 0;  // rows seen modulo keep_every
};

/// Multiplies every value by a constant (unit conversion, e.g. percent ->
/// fraction telemetry).  Only meaningful on raw-phi batches; throws
/// std::logic_error on log-transformed input.
class Scale final : public Element {
 public:
  explicit Scale(double factor) : factor_(factor) {}
  void do_push(const SnapshotBatch& batch) override;

 private:
  double factor_;
  std::vector<double> buffer_;
};

// -- Sinks ------------------------------------------------------------------

/// Folds batches into a LiaMonitor via observe_block.  Requires
/// log-transformed batches (insert a LogTransform upstream; throws
/// std::logic_error otherwise — silently observing phi would corrupt the
/// window).  `on_inference` (optional) fires for every diagnosing tick
/// with the 0-based tick index and the inference.
class MonitorSink final : public Element {
 public:
  using InferenceFn =
      std::function<void(std::size_t, const core::LossInference&)>;
  explicit MonitorSink(core::LiaMonitor& monitor, InferenceFn on_inference = {})
      : monitor_(&monitor), on_inference_(std::move(on_inference)) {}
  void do_push(const SnapshotBatch& batch) override;

  [[nodiscard]] core::LiaMonitor& monitor() { return *monitor_; }

 private:
  core::LiaMonitor* monitor_;
  InferenceFn on_inference_;
};

/// Writes batches to a binary trace file.  The writer is created lazily at
/// the first batch (arity and log flag come from the stream itself);
/// finish() seals the header — a drained pipeline leaves a valid trace,
/// an abandoned one leaves a file every reader rejects.
class BinaryTraceSink final : public Element {
 public:
  explicit BinaryTraceSink(std::string file) : file_(std::move(file)) {}
  void do_push(const SnapshotBatch& batch) override;
  void finish() override;

  [[nodiscard]] std::size_t snapshots() const { return snapshots_; }

 private:
  std::string file_;
  std::unique_ptr<BinaryTraceWriter> writer_;
  std::size_t snapshots_ = 0;
};

/// Writes batches as text snapshot lines at full precision
/// (max_digits10), so text -> binary -> text round-trips bit-identical
/// doubles.  Requires raw-phi batches: the text format stores phi, and a
/// log-transformed stream cannot be converted back losslessly (throws
/// std::logic_error — `lia_cli mode=convert` reports it).
class TextSnapshotSink final : public Element {
 public:
  explicit TextSnapshotSink(std::ostream& os) : os_(&os) {}
  void do_push(const SnapshotBatch& batch) override;

 private:
  std::ostream* os_;
  bool wrote_header_ = false;
};

/// Accumulates everything pushed (tests and in-memory consumers).
class CollectSink final : public Element {
 public:
  void do_push(const SnapshotBatch& batch) override;

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t paths() const { return paths_; }
  [[nodiscard]] bool log_transformed() const { return log_transformed_; }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  [[nodiscard]] std::span<const double> row(std::size_t i) const {
    return {values_.data() + i * paths_, paths_};
  }

 private:
  std::vector<double> values_;
  std::size_t rows_ = 0;
  std::size_t paths_ = 0;
  bool log_transformed_ = false;
};

/// Opens `file` by content — binary traces by magic, anything else as text
/// — and returns a source over it.  `holder` keeps the backing objects
/// (reader / ifstream) alive; callers hold it for the source's lifetime.
struct OpenedSnapshotSource {
  std::unique_ptr<Source> source;
  std::shared_ptr<void> holder;
  bool binary = false;
  /// Binary only: whether the trace stores Y instead of phi.
  bool log_transformed = false;
};
OpenedSnapshotSource open_snapshot_source(const std::string& file);

}  // namespace losstomo::io

// obs::Registry — the telemetry spine: named counters, gauges, and
// log-linear histograms, plus the flight recorder ring the phase spans
// (obs/span.hpp) feed.
//
// Design rules, in order of importance:
//
//  * Determinism is a first-class tag.  Counters and gauges that mirror
//    logically deterministic engine state (refactorizations, pairs, rows
//    ingested, pins) are
//    registered kDeterministic and MUST be bit-identical across thread
//    counts and a checkpoint/restore — the fuzzer in
//    tests/obs/telemetry_determinism_test pins exactly that set
//    (deterministic_values()).  Wall-clock timings (histograms, timing
//    gauges) and any value that depends on how the work was scheduled are
//    kNondeterministic and excluded.
//    The instrumented components guarantee this by *publishing* counter
//    values from their serialized member state (Counter::set), never by
//    maintaining a parallel live count that could drift.
//
//  * Low overhead.  A component holds a Registry* (nullptr = telemetry
//    off, the default) and pre-resolved Counter*/Gauge*/Histogram*
//    handles; the steady-tick cost with telemetry on is a handful of
//    stores and one histogram index per phase span.  Handles are stable
//    for the registry's lifetime (deque storage).  The compile-time kill
//    switch LOSSTOMO_NO_TELEMETRY turns every mutation (add/set/observe,
//    span bodies) into a no-op so the instrumentation compiles away
//    entirely; registration and export still work (all zeros).
//
//  * Single-writer, like the monitor itself: register and mutate from one
//    thread.  Worker threads never touch the registry — deterministic
//    counters come from state the deterministic parallel_for already
//    pins, so there is nothing concurrent to count.
//
// Export: write_json (schema "losstomo.metrics", versioned, shared
// util::json writer with bench::JsonReport) and write_prometheus (text
// exposition; dots become underscores, histograms emit cumulative
// buckets).  tools/check_metrics.py validates the JSON schema in CI.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace losstomo::obs {

class Registry;
class Span;

enum class Determinism {
  kDeterministic,     // bit-identical at any threads/restore; fuzzer-pinned
  kNondeterministic,  // wall-clock or schedule-dependent; excluded
};

/// Monotonic event count.  Deterministic counters are *published* with
/// set() from serialized engine state; add() is for live streams whose
/// order is single-threaded by construction (pipeline rows/bytes).
class Counter {
 public:
  void add(std::uint64_t n = 1) {
#ifndef LOSSTOMO_NO_TELEMETRY
    value_ += n;
#else
    (void)n;
#endif
  }
  void set(std::uint64_t v) {
#ifndef LOSSTOMO_NO_TELEMETRY
    value_ = v;
#else
    (void)v;
#endif
  }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time level (window fill, active paths, pinned links).
class Gauge {
 public:
  void set(double v) {
#ifndef LOSSTOMO_NO_TELEMETRY
    value_ = v;
#else
    (void)v;
#endif
  }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Log-linear histogram over positive values (seconds): power-of-two
/// major buckets from 2^kMinExp (~1 ns) to 2^kMaxExp (1024 s), each split
/// into kSubBuckets linear sub-buckets — ~9% relative resolution over 12
/// decades with a fixed 162-slot footprint and O(1) frexp indexing.
/// Slot 0 catches underflow (v < 2^kMinExp, including v <= 0); the last
/// slot catches overflow.
class Histogram {
 public:
  static constexpr int kSubBuckets = 4;
  static constexpr int kMinExp = -30;
  static constexpr int kMaxExp = 10;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets + 2;

  void observe(double v);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  /// Smallest/largest observed value; 0 while count() == 0 (the JSON
  /// exporter emits null for an empty histogram's min/max).
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& buckets() const {
    return buckets_;
  }
  /// Inclusive upper bound of bucket `i`; +inf for the overflow slot.
  [[nodiscard]] static double bucket_upper(std::size_t i);
  /// The bucket `v` lands in (what observe() uses).
  [[nodiscard]] static std::size_t bucket_index(double v);

  void reset();

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// One flight-recorder entry: a completed span (exclusive seconds) or an
/// instant marker (Registry::note).  `name` points into the registry's
/// interned name pool and is valid for the registry's lifetime.
struct SpanEvent {
  std::uint64_t seq = 0;
  const char* name = "";
  double seconds = 0.0;
  std::uint32_t depth = 0;
  bool marker = false;
};

/// Fixed-capacity ring of the most recent span events — the post-mortem
/// buffer for a degraded run.  Recording is O(1) with no allocation;
/// events() returns oldest -> newest.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity);

  void record(const SpanEvent& event);
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  /// Events currently retained (<= capacity).
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Events ever recorded (recorded() - size() were overwritten).
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  [[nodiscard]] std::vector<SpanEvent> events() const;
  void clear();

 private:
  std::vector<SpanEvent> ring_;
  std::size_t next_ = 0;
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
};

/// The metric registry.  Names are dotted lowercase paths
/// ("monitor.refactorizations", "pipeline.source.rows",
/// "span.solve.seconds" — see docs/OBSERVABILITY.md); registering the
/// same name twice returns the same handle, registering it as a
/// different kind throws std::logic_error.  Handles stay valid for the
/// registry's lifetime.  There is deliberately no global registry:
/// telemetry is injected (core::MonitorOptions::telemetry, set_telemetry
/// hooks), so two monitors never share counters by accident.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name,
                   Determinism det = Determinism::kDeterministic);
  Gauge& gauge(std::string_view name,
               Determinism det = Determinism::kDeterministic);
  Histogram& histogram(std::string_view name,
                       Determinism det = Determinism::kNondeterministic);

  /// Interns phase `name` for obs::Span: creates (or finds) the
  /// "span.<name>.seconds" histogram and returns a dense id for it.
  std::size_t phase(std::string_view name);
  [[nodiscard]] std::string_view phase_name(std::size_t id) const;

  /// Arms the flight recorder with a ring of `capacity` events (replacing
  /// any previous ring).  Until armed, spans cost one histogram update
  /// and nothing is retained.
  void enable_flight_recorder(std::size_t capacity = 256);
  [[nodiscard]] const FlightRecorder* flight_recorder() const {
    return recorder_ ? &*recorder_ : nullptr;
  }
  /// Drops an instant marker into the flight recorder ("fallback",
  /// "refactorize") at the current span depth; no-op until armed.
  void note(std::string_view name);

  /// The deterministic metric set as raw bits: counters by value, gauges
  /// bit_cast to uint64 — the exact map two runs of differing threads /
  /// restore history must agree on.  Histograms never enter.
  [[nodiscard]] std::map<std::string, std::uint64_t> deterministic_values()
      const;

  /// Zeroes every metric and clears the recorder; registrations (names,
  /// kinds, handles) survive.
  void reset();

  // -- Export ---------------------------------------------------------------
  /// JSON snapshot, schema "losstomo.metrics" version 1
  /// (tools/check_metrics.py validates it).
  void write_json(std::ostream& out) const;
  /// Prometheus text exposition ('.' -> '_', "losstomo_" prefix).
  void write_prometheus(std::ostream& out) const;
  /// Writes the snapshot to `path` — Prometheus text when the path ends
  /// in ".prom", JSON otherwise.  Throws std::runtime_error on IO errors.
  void write_file(const std::string& path) const;
  /// The flight recorder contents as JSON (on-demand / on-error dump);
  /// writes {"events": []} when the recorder was never armed.
  void write_flight_recorder_json(std::ostream& out) const;

 private:
  friend class Span;

  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct Metric {
    std::string name;
    Kind kind;
    std::size_t index;  // into the kind's deque
    Determinism det;
  };
  struct Phase {
    std::string name;  // interned; SpanEvent::name points at c_str()
    Histogram* hist;
  };

  Metric& find_or_create(std::string_view name, Kind kind, Determinism det);
  /// Span completion: feeds the phase histogram and the recorder.
  void finish_span(std::size_t phase, double seconds, std::uint32_t depth);

  std::map<std::string, std::size_t, std::less<>> by_name_;
  std::vector<Metric> metrics_;  // insertion order == export order
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::map<std::string, std::size_t, std::less<>> phase_by_name_;
  std::deque<Phase> phases_;
  std::deque<std::string> note_names_;  // interned marker names
  std::map<std::string, std::size_t, std::less<>> note_by_name_;
  std::optional<FlightRecorder> recorder_;
  Span* active_span_ = nullptr;  // innermost live span (exclusive timing)
  std::uint64_t event_seq_ = 0;
};

}  // namespace losstomo::obs

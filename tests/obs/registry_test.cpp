// obs::Registry unit surface: registration identity and kind safety,
// log-linear histogram bucket math, the deterministic-value snapshot,
// JSON / Prometheus export shape, flight-recorder ring semantics, and
// nested-span exclusive timing.
//
// Value assertions on counters/histograms are guarded on
// LOSSTOMO_NO_TELEMETRY: under the kill switch mutations are no-ops by
// contract (registration and export still work, everything reads zero),
// and the structural assertions still run.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace losstomo::obs {
namespace {

TEST(Registry, SameNameReturnsSameHandle) {
  Registry registry;
  Counter& a = registry.counter("monitor.ticks");
  Counter& b = registry.counter("monitor.ticks");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = registry.gauge("monitor.paths");
  Gauge& g2 = registry.gauge("monitor.paths");
  EXPECT_EQ(&g1, &g2);
  Histogram& h1 = registry.histogram("span.tick.seconds");
  Histogram& h2 = registry.histogram("span.tick.seconds");
  EXPECT_EQ(&h1, &h2);
}

TEST(Registry, HandlesSurviveLaterRegistrations) {
  Registry registry;
  Counter& first = registry.counter("c.first");
  // Deque storage: growing the registry must never move existing metrics.
  for (int i = 0; i < 200; ++i) {
    registry.counter("c.bulk." + std::to_string(i));
  }
  first.set(7);
  EXPECT_EQ(&first, &registry.counter("c.first"));
#ifndef LOSSTOMO_NO_TELEMETRY
  EXPECT_EQ(registry.counter("c.first").value(), 7u);
#endif
}

TEST(Registry, KindMismatchThrows) {
  Registry registry;
  registry.counter("monitor.ticks");
  EXPECT_THROW(registry.gauge("monitor.ticks"), std::logic_error);
  EXPECT_THROW(registry.histogram("monitor.ticks"), std::logic_error);
  registry.histogram("span.solve.seconds");
  EXPECT_THROW(registry.counter("span.solve.seconds"), std::logic_error);
}

TEST(Histogram, BucketMathCoversTheWholeAxis) {
  // Underflow slot: non-positive, NaN, and sub-2^-30 values.
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(-1.5), 0u);
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<double>::quiet_NaN()),
            0u);
  EXPECT_EQ(Histogram::bucket_index(std::ldexp(1.0, Histogram::kMinExp) / 2),
            0u);
  // Overflow slot: anything >= 2^kMaxExp, including +inf.
  EXPECT_EQ(Histogram::bucket_index(std::ldexp(1.0, Histogram::kMaxExp)),
            Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<double>::infinity()),
            Histogram::kBuckets - 1);
  // Upper bounds are strictly increasing and the overflow slot is +inf.
  for (std::size_t i = 1; i < Histogram::kBuckets - 1; ++i) {
    EXPECT_LT(Histogram::bucket_upper(i - 1), Histogram::bucket_upper(i)) << i;
  }
  EXPECT_TRUE(std::isinf(Histogram::bucket_upper(Histogram::kBuckets - 1)));
  // Every in-range value lands in its half-open bucket: slot i covers
  // [bucket_upper(i-1), bucket_upper(i)), so a value exactly on a
  // boundary (0.5, 1.0, ...) belongs to the upper slot.
  for (const double v : {1.1e-9, 3e-7, 1e-4, 0.5, 1.0, 1.5, 3.999, 42.0,
                         1000.0}) {
    const std::size_t i = Histogram::bucket_index(v);
    ASSERT_GT(i, 0u) << v;
    ASSERT_LT(i, Histogram::kBuckets - 1) << v;
    EXPECT_LT(v, Histogram::bucket_upper(i)) << v;
    EXPECT_GE(v, Histogram::bucket_upper(i - 1)) << v;
  }
}

#ifndef LOSSTOMO_NO_TELEMETRY
TEST(Histogram, ObserveTracksCountSumMinMax) {
  Histogram h;
  h.observe(0.25);
  h.observe(0.75);
  h.observe(0.5);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.25);
  EXPECT_DOUBLE_EQ(h.max(), 0.75);
  std::uint64_t total = 0;
  for (const auto c : h.buckets()) total += c;
  EXPECT_EQ(total, 3u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}
#endif

TEST(Registry, DeterministicValuesSelectsTaggedMetricsOnly) {
  Registry registry;
  Counter& det_counter = registry.counter("monitor.rank1_updates");
  Gauge& det_gauge = registry.gauge("monitor.paths");
  Counter& wall = registry.counter("ingest.wall_ns",
                                   Determinism::kNondeterministic);
  Gauge& load = registry.gauge("ingest.queue_depth",
                               Determinism::kNondeterministic);
  Histogram& hist = registry.histogram("span.tick.seconds");
  det_counter.set(41);
  det_gauge.set(12.5);
  wall.set(999);
  load.set(3.0);
  hist.observe(0.01);

  const auto values = registry.deterministic_values();
  EXPECT_EQ(values.size(), 2u);
  ASSERT_TRUE(values.contains("monitor.rank1_updates"));
  ASSERT_TRUE(values.contains("monitor.paths"));
  EXPECT_FALSE(values.contains("ingest.wall_ns"));
  EXPECT_FALSE(values.contains("ingest.queue_depth"));
  EXPECT_FALSE(values.contains("span.tick.seconds"));
#ifndef LOSSTOMO_NO_TELEMETRY
  EXPECT_EQ(values.at("monitor.rank1_updates"), 41u);
#endif
}

TEST(Registry, JsonExportCarriesSchemaAndSections) {
  Registry registry;
  registry.counter("monitor.ticks").set(5);
  registry.gauge("monitor.paths").set(24.0);
  registry.histogram("span.tick.seconds").observe(0.002);
  std::ostringstream os;
  registry.write_json(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"schema\": \"losstomo.metrics\""), std::string::npos);
  EXPECT_NE(text.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"counters\""), std::string::npos);
  EXPECT_NE(text.find("\"gauges\""), std::string::npos);
  EXPECT_NE(text.find("\"histograms\""), std::string::npos);
  EXPECT_NE(text.find("\"monitor.ticks\""), std::string::npos);
  EXPECT_NE(text.find("\"span.tick.seconds\""), std::string::npos);
  EXPECT_NE(text.find("\"deterministic\""), std::string::npos);
}

TEST(Registry, PrometheusExportMangledNamesAndInfBucket) {
  Registry registry;
  registry.counter("monitor.rank1_updates").set(3);
  registry.histogram("span.tick.seconds").observe(0.25);
  std::ostringstream os;
  registry.write_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("losstomo_monitor_rank1_updates"), std::string::npos);
  EXPECT_NE(text.find("# TYPE losstomo_monitor_rank1_updates counter"),
            std::string::npos);
  EXPECT_NE(text.find("losstomo_span_tick_seconds_bucket"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("losstomo_span_tick_seconds_count"), std::string::npos);
  // Metric names are fully mangled: no dotted name survives.
  EXPECT_EQ(text.find("losstomo_span.tick"), std::string::npos);
}

#ifndef LOSSTOMO_NO_TELEMETRY
TEST(Registry, FlightRecorderRingWrapsOldestFirst) {
  Registry registry;
  registry.enable_flight_recorder(4);
  for (int i = 0; i < 10; ++i) registry.note("marker");
  const FlightRecorder* recorder = registry.flight_recorder();
  ASSERT_NE(recorder, nullptr);
  EXPECT_EQ(recorder->capacity(), 4u);
  EXPECT_EQ(recorder->size(), 4u);
  EXPECT_EQ(recorder->recorded(), 10u);
  const auto events = recorder->events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
  EXPECT_TRUE(events.back().marker);
  EXPECT_STREQ(events.back().name, "marker");
}

TEST(Registry, NoteBeforeArmingIsANoOp) {
  Registry registry;
  registry.note("early");  // must not crash or allocate a recorder
  EXPECT_EQ(registry.flight_recorder(), nullptr);
}

TEST(Span, NestedSpansCreditExclusiveTime) {
  Registry registry;
  registry.enable_flight_recorder(8);
  const std::size_t outer = registry.phase("outer");
  const std::size_t inner = registry.phase("inner");
  {
    Span outer_span(&registry, outer);
    {
      Span inner_span(&registry, inner);
      volatile double acc = 0.0;
      for (int i = 0; i < 200000; ++i) acc += static_cast<double>(i) * 1e-9;
    }
  }
  const Histogram& outer_hist = registry.histogram("span.outer.seconds");
  const Histogram& inner_hist = registry.histogram("span.inner.seconds");
  EXPECT_EQ(outer_hist.count(), 1u);
  EXPECT_EQ(inner_hist.count(), 1u);
  // Exclusive timing: the busy loop ran entirely inside the child, so the
  // parent's own (exclusive) time must come out smaller than the child's.
  EXPECT_GT(inner_hist.sum(), 0.0);
  EXPECT_LT(outer_hist.sum(), inner_hist.sum());

  // The recorder sees the child complete first, one level deeper (depth
  // counts enclosing spans: a top-level span is depth 0).
  const auto events = registry.flight_recorder()->events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 0u);
}

TEST(Span, NullRegistryIsFree) {
  // Components hold a Registry* that is nullptr when telemetry is off; a
  // span over it must be a complete no-op.
  Span span(nullptr, 0);
  SUCCEED();
}

TEST(Registry, ResetZeroesValuesKeepsRegistrations) {
  Registry registry;
  Counter& c = registry.counter("monitor.ticks");
  Gauge& g = registry.gauge("monitor.paths");
  Histogram& h = registry.histogram("span.tick.seconds");
  registry.enable_flight_recorder(4);
  c.set(9);
  g.set(2.0);
  h.observe(1.0);
  registry.note("marker");
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(registry.flight_recorder()->size(), 0u);
  EXPECT_EQ(&c, &registry.counter("monitor.ticks"));
}
#endif  // LOSSTOMO_NO_TELEMETRY

TEST(Registry, WriteFileRejectsUnwritablePath) {
  Registry registry;
  registry.counter("monitor.ticks");
  EXPECT_THROW(
      registry.write_file("/nonexistent_losstomo_dir/metrics.json"),
      std::runtime_error);
}

TEST(Registry, FlightRecorderJsonWithoutArmingIsEmpty) {
  Registry registry;
  std::ostringstream os;
  registry.write_flight_recorder_json(os);
  EXPECT_NE(os.str().find("\"events\""), std::string::npos);
}

}  // namespace
}  // namespace losstomo::obs

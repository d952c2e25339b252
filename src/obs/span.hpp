// obs::Span — RAII phase timer feeding a Registry's per-phase histogram
// and (when armed) its flight recorder.
//
// Spans nest: the monitoring stack opens `tick` in ScenarioRunner::step
// (or per row in LiaMonitor::observe_block), `ingest` around snapshot
// production, and `accumulate`/`solve` inside LiaMonitor::observe — and
// each records its *exclusive* time: opening a child pauses the parent's
// util::Timer, closing it resumes, so a phase histogram answers "where did
// this tick's time go" without double counting.  Nesting is tracked per
// registry (single-writer, like the registry itself).
//
// A null registry makes the span a no-op, which is how components stay
// uninstrumented by default; under LOSSTOMO_NO_TELEMETRY the body
// compiles away entirely.
//
//   const std::size_t solve_phase = registry.phase("solve");
//   {
//     obs::Span span(&registry, solve_phase);
//     ... // the solve
//   }  // ~Span records into span.solve.seconds
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/timer.hpp"

namespace losstomo::obs {

class Registry;

class Span {
 public:
#ifndef LOSSTOMO_NO_TELEMETRY
  /// `phase` is a Registry::phase() id of `registry`.  A nullptr registry
  /// is a no-op span.
  Span(Registry* registry, std::size_t phase) noexcept;
  ~Span();
#else
  Span(Registry*, std::size_t) noexcept {}
  ~Span() = default;
#endif
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  friend class Registry;
#ifndef LOSSTOMO_NO_TELEMETRY
  Registry* registry_;
  std::size_t phase_;
  Span* parent_ = nullptr;
  std::uint32_t depth_ = 0;
  util::Timer timer_;  // running only while no child span is open
#endif
};

}  // namespace losstomo::obs

// lia_perfbench — one workload, one run, one JSON result line.
//
//   lia_perfbench --workload tree-drop|overlay-keepall|churn --seed N
//                 --seconds S --trace 0|1 [--tiny] [--threads N]
//                 [--scratch DIR]
//
// --trace 0 measures the end-to-end metrics; --trace 1 the per-layer ones
// (it also runs the untraced monitor, to check the traced inferences bit
// for bit and to measure the tracing overhead).  Every metric is printed
// as "name value unit"; the last stdout line is
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Exit status 1 when the correctness gate fails, 2 on bad usage or error.
// perfbench/run.py builds this binary and is the usual entry point.
#include <malloc.h>

#include <algorithm>
#include <iostream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "feed.hpp"
#include "runs.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using namespace losstomo;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  std::size_t threads = 2;
  std::string scratch = ".bench_build/perfbench-data";
};

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value);
      if (args.trace != 0 && args.trace != 1) {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
    } else if (flag == "--threads") {
      args.threads = std::stoul(value);
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      throw std::invalid_argument("unknown argument: " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return args;
}

// Linear interpolation between closest ranks.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  void print(std::ostream& os, const Gate& gate) const {
    for (const auto& m : metrics_) {
      os << m.name << " " << util::json::number(m.value, 17) << " " << m.unit
         << "\n";
    }
    util::json::Writer w(os);
    w.begin_object(/*compact=*/true);
    w.key("correct").value(gate.failed == 0);
    w.key("attempted").value(static_cast<std::uint64_t>(gate.attempted));
    w.key("failed").value(static_cast<std::uint64_t>(gate.failed));
    w.key("metrics").begin_object();
    for (const auto& m : metrics_) {
      w.key(m.name).begin_object();
      w.key("value").value_raw(util::json::number(m.value, 17));
      w.key("unit").value(m.unit);
      w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish();
  }

 private:
  std::vector<Metric> metrics_;
};

constexpr double kMs = 1e3;

void end_to_end(const Inputs& inputs, Gate& gate, Metrics& metrics) {
  const auto run = run_untraced(inputs, inputs.spec.setups,
                                inputs.spec.checkpoint_reps, gate);
  metrics.add("snapshots_per_s",
              static_cast<double>(run.tick_s.size()) / run.steady_s, "1/s");
  metrics.add("tick_p50_ms", kMs * quantile(run.tick_s, 0.5), "ms");
  // The tail per segment (each has >= 200 ticks, so >= 10 beyond p95),
  // then the median over segments: a host stall in one segment does not
  // move it.
  std::vector<double> segment_p95;
  for (auto first = run.tick_s.begin(); first != run.tick_s.end();
       first += static_cast<std::ptrdiff_t>(inputs.steady)) {
    segment_p95.push_back(quantile(
        {first, first + static_cast<std::ptrdiff_t>(inputs.steady)}, 0.95));
  }
  metrics.add("tick_p95_ms", kMs * median(segment_p95), "ms");
  metrics.add("setup_s", median(run.setup_s), "s");
  metrics.add("save_s", median(run.save_s), "s");
  metrics.add("restore_s", median(run.restore_s), "s");
  metrics.add("checkpoint_mb", static_cast<double>(run.checkpoint_bytes) / 1e6,
              "MB");
  metrics.add("peak_rss_mb", run.peak_rss_mb, "MB");
}

void per_layer(const Inputs& inputs, Gate& gate, Metrics& metrics) {
  const auto untraced = run_untraced(inputs, 1, 0, gate);
  const auto traced = run_traced(inputs);
  for (std::size_t s = 0; s < traced.loss.size(); ++s) {
    ++gate.attempted;
    gate.check(bit_identical(untraced.loss[s], traced.loss[s]),
               "traced inference differs from the monitor's at steady tick " +
                   std::to_string(s));
  }

  const double traced_total = sum(traced.tick_s);
  double layer_total = 0.0;
  const auto layer = [&](const char* name, Layer id) {
    std::vector<double> times;
    for (const auto& t : traced.layer_s) times.push_back(t[id]);
    const double total = sum(times);
    layer_total += total;
    if (id == kChurn) return;  // events hit few ticks: see churn.* below
    metrics.add(std::string(name) + ".ms_p50", kMs * median(times), "ms");
    metrics.add(std::string(name) + ".share", total / traced_total, "ratio");
  };
  const double ticks = static_cast<double>(traced.tick_s.size());

  layer("io", kIo);
  metrics.add("io.bytes_per_snapshot",
              static_cast<double>(inputs.universe.rows() * sizeof(double)), "B");
  layer("accumulate", kAccumulate);
  metrics.add("accumulate.drift_refreshes",
              static_cast<double>(traced.drift_refreshes), "count");
  metrics.add("accumulate.drift_refresh_ms", kMs * median(traced.drift_push_s),
              "ms");
  layer("refresh", kRefresh);
  metrics.add("refresh.pending_flips_p50", median(traced.pending_flips),
              "count");
  metrics.add("refresh.equations_dropped", median(traced.equations_dropped),
              "count");
  layer("solve", kSolve);
  metrics.add("solve.pcg_iters_per_tick",
              static_cast<double>(traced.pcg_iterations) / ticks, "count");
  metrics.add("solve.refactorizations",
              static_cast<double>(traced.refactorizations), "count");
  metrics.add("solve.rank1_updates", static_cast<double>(traced.rank1_updates),
              "count");
  metrics.add("solve.downdate_fallbacks",
              static_cast<double>(traced.downdate_fallbacks), "count");
  layer("eliminate", kEliminate);
  metrics.add("eliminate.kept_p50", median(traced.kept), "count");
  metrics.add("eliminate.unchanged_ratio",
              traced.kept_compared == 0
                  ? 0.0
                  : static_cast<double>(traced.kept_unchanged) /
                        static_cast<double>(traced.kept_compared),
              "ratio");
  layer("infer", kInfer);
  layer("churn", kChurn);
  metrics.add("churn.events", static_cast<double>(traced.churn_events), "count");
  metrics.add("churn.set_path_active_ms_p50",
              kMs * median(traced.set_path_active_s), "ms");
  metrics.add("churn.add_paths_ms_p50", kMs * median(traced.add_paths_s), "ms");
  metrics.add("churn.event_tick_ms_p50", kMs * median(traced.event_tick_s),
              "ms");

  // Accuracy is fixed by the seed's congestion draw, not by speed (see
  // README.md): reported here, with the other exact per-seed figures.
  metrics.add("detection_rate", untraced.detection_rate, "ratio");
  metrics.add("false_positive_rate", untraced.false_positive_rate, "ratio");

  const double coverage = layer_total / traced_total;
  metrics.add("trace.coverage", coverage, "ratio");
  metrics.add("trace.overhead_frac",
              quantile(traced.tick_s, 0.5) / quantile(untraced.tick_s, 0.5) - 1.0,
              "ratio");
  gate.check(coverage > 0.95 && coverage < 1.05,
             "layer times cover " + std::to_string(coverage) +
                 " of the traced tick");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    // A fixed mmap threshold: glibc's default one rises after the first
    // large free and then keeps freed matrices on the heap, so how much
    // stays resident — and peak_rss_mb — would depend on which thread
    // freed what.  Fixed, every block >= 4 MiB goes back to the OS when
    // freed, and peak_rss_mb measures what the monitor holds.
    mallopt(M_MMAP_THRESHOLD, 4 << 20);
    util::set_default_threads(args.threads);
    const WorkloadSpec spec = find_workload(args.workload, args.tiny);
    Inputs inputs;
    make_inputs(inputs, spec, args.seconds, args.seed, args.scratch);
    std::cout << "workload " << spec.name << (args.tiny ? " (tiny)" : "")
              << ": paths " << inputs.routing.rows() << "/"
              << inputs.universe.rows() << ", links "
              << inputs.universe.cols() << ", window " << spec.window
              << ", " << inputs.segments.size() << " segments x "
              << inputs.steady << " steady ticks, threads " << args.threads
              << ", seed " << args.seed << "\n";
    Gate gate;
    Metrics metrics;
    if (args.trace == 0) {
      end_to_end(inputs, gate, metrics);
    } else {
      per_layer(inputs, gate, metrics);
    }
    metrics.print(std::cout, gate);
    return gate.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "lia_perfbench: " << e.what() << "\n";
    return 2;
  }
}

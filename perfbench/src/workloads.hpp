// Benchmark workloads: fixed topologies, seeded inputs.
//
// Every workload feeds one core::LiaMonitor built with default
// MonitorOptions except `window`.  The topology and its size are part of
// the workload; the seed drives only the snapshot simulator and the churn
// event schedule.  All inputs — an LTBT trace of raw path transmission
// rates, the simulator's per-tick ground truth and (for churn) the event
// script — are generated before any clock starts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "io/binary_trace.hpp"
#include "linalg/sparse.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  enum class Topology { kTree, kOverlay } topology = Topology::kTree;
  std::size_t tree_nodes = 0;  // kTree
  std::size_t branching = 0;   // kTree
  std::size_t hosts = 0;       // kOverlay (PlanetLab-like, all host pairs)
  std::uint64_t topology_seed = 41;
  std::size_t window = 50;
  double p = 0.05;
  double min_good_loss = 0.0;
  // Churn script (churn workloads only): a leave/join flap every
  // flap_every ticks, a burst_paths add_paths burst every burst_every.
  bool churn = false;
  std::size_t flap_every = 0;
  std::size_t burst_every = 0;
  std::size_t burst_paths = 0;
  // Run sizing.  A run feeds several segments — independent traces from
  // sub-seeds of --seed, each into a freshly set-up monitor — so one run
  // averages over several congestion draws.  `segments` is the count at
  // --seconds 10 and scales with --seconds (at least one); the tick count
  // never depends on how fast the code under test runs.  Each segment
  // times `setups` set-ups, then `segment_ticks` steady ticks, a count
  // that covers a fixed number of drift refreshes (see README.md), then
  // `checkpoint_reps` saves and restores of the warm monitor.
  std::size_t segments = 1;
  std::size_t setups = 1;
  std::size_t segment_ticks = 0;
  std::size_t checkpoint_reps = 1;

  [[nodiscard]] std::size_t segment_count(double seconds) const;
};

/// A workload by name — overlay-keepall, churn, or tree-drop (defined, but
/// kept out of BENCHMARK.json) — full size or the tiny test variant.
/// Throws std::invalid_argument for an unknown name.
WorkloadSpec find_workload(std::string_view name, bool tiny);

struct ChurnEvent {
  enum class Kind { kJoin, kLeave, kGrow } kind = Kind::kJoin;
  std::size_t path = 0;                               // kJoin / kLeave
  std::vector<std::vector<std::uint32_t>> rows = {};  // kGrow
};

/// One segment's seeded trace.  Trace row t is the t-th snapshot the
/// monitor sees: rows [0, window) fill the window, row `window` is the
/// first diagnosis (end of set-up), then the steady ticks, then
/// `continuation` ticks that check a restored monitor.
struct Segment {
  std::string trace_file;  // LTBT, raw phi, universe.rows() wide
  std::optional<losstomo::io::BinaryTraceReader> trace;  // mapped trace_file
  std::vector<std::vector<bool>> congested;     // truth per trace row
  std::vector<std::vector<ChurnEvent>> events;  // applied before row t
};

/// Seeded inputs of one run.
struct Inputs {
  WorkloadSpec spec;
  // Every path the run can see, in the order the monitor learns them;
  // the monitor starts with the leading `routing` rows and churn bursts
  // append the rest.
  losstomo::linalg::SparseBinaryMatrix universe;
  losstomo::linalg::SparseBinaryMatrix routing;
  std::size_t steady = 0;  // per segment
  std::size_t continuation = 0;
  double threshold_tl = 0.0;
  std::vector<Segment> segments;

  Inputs() = default;
  Inputs(const Inputs&) = delete;
  Inputs& operator=(const Inputs&) = delete;
  ~Inputs();  // removes the trace files

  [[nodiscard]] std::size_t first_steady_row() const { return spec.window + 1; }
  [[nodiscard]] std::size_t rows() const {
    return first_steady_row() + steady + continuation;
  }
};

/// Builds the topology, then per segment draws the churn script, simulates
/// every trace row and writes the trace to
/// `<scratch_dir>/<name>-<seed>-<segment>-<pid>.ltbt`, then maps it.
void make_inputs(Inputs& out, const WorkloadSpec& spec, double seconds,
                 std::uint64_t seed, const std::string& scratch_dir);

}  // namespace perfbench

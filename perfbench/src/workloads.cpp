#include "workloads.hpp"

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "io/binary_trace.hpp"
#include "net/routing_matrix.hpp"
#include "sim/probe_sim.hpp"
#include "stats/rng.hpp"
#include "topology/generators.hpp"
#include "topology/overlay.hpp"
#include "topology/routing.hpp"

namespace perfbench {

using namespace losstomo;

namespace {

// Full-size workloads, sized so --seconds 10 takes 15-40 s on the
// reference host (4 cores, 2 library workers).
WorkloadSpec tree_drop() {
  // 646 paths, 983 links: kAuto resolves to drop-negative, and the
  // cached-factor solve dominates the tick.  Not in BENCHMARK.json: on a
  // share of congestion draws G turns singular and every tick refactorizes
  // (see README.md, "Findings").
  return {.name = "tree-drop",
          .topology = WorkloadSpec::Topology::kTree,
          .tree_nodes = 1300,
          .branching = 8,
          .window = 200,
          .p = 0.05,
          .segments = 4,
          .setups = 2,
          .segment_ticks = 200,
          .checkpoint_reps = 3};
}

WorkloadSpec overlay_keepall() {
  // 72 hosts: 5112 paths over 366 links — above the 2000-path pairwise
  // cap, so kAuto resolves to keep-all and the dense np^2 accumulator
  // dominates the tick and the checkpoint.
  return {.name = "overlay-keepall",
          .topology = WorkloadSpec::Topology::kOverlay,
          .hosts = 72,
          .window = 50,
          .p = 0.04,
          .segments = 2,
          .setups = 3,
          .segment_ticks = 200,
          .checkpoint_reps = 3};
}

WorkloadSpec churn() {
  // 40 hosts: a 1560-path universe over 268 links; the trailing paths
  // form the reserve pool the add_paths bursts draw from.
  return {.name = "churn",
          .topology = WorkloadSpec::Topology::kOverlay,
          .hosts = 40,
          .window = 50,
          .p = 0.04,
          .min_good_loss = 0.002,
          .churn = true,
          .flap_every = 8,
          .burst_every = 64,
          .burst_paths = 32,
          .segments = 4,
          .setups = 2,
          .segment_ticks = 400,
          .checkpoint_reps = 8};
}

// Tiny variants: same policy and accumulator as the full workload (the
// keep-all overlay needs more than 2000 paths for kAuto to keep all), a
// short window, and two one-period segments.  Smaller drop-negative
// instances are often singular, where streaming and batch disagree (see
// README.md, "Findings").
WorkloadSpec shrink(WorkloadSpec spec) {
  spec.segments = 2;
  spec.setups = 2;
  spec.checkpoint_reps = 2;
  if (spec.name == "tree-drop") {
    spec.tree_nodes = 300;
    spec.branching = 6;
    spec.window = 40;
  } else if (spec.name == "overlay-keepall") {
    spec.hosts = 46;
    spec.window = 10;
  } else {
    spec.hosts = 24;
    spec.window = 20;
    spec.burst_every = 16;
    spec.burst_paths = 8;
  }
  spec.segment_ticks = 2 * spec.window;
  return spec;
}

}  // namespace

std::size_t WorkloadSpec::segment_count(double seconds) const {
  return static_cast<std::size_t>(std::max(
      1.0, std::round(seconds / 10.0 * static_cast<double>(segments))));
}

WorkloadSpec find_workload(std::string_view name, bool tiny) {
  WorkloadSpec spec;
  if (name == "tree-drop") {
    spec = tree_drop();
  } else if (name == "overlay-keepall") {
    spec = overlay_keepall();
  } else if (name == "churn") {
    spec = churn();
  } else {
    throw std::invalid_argument("unknown workload: " + std::string(name));
  }
  return tiny ? shrink(std::move(spec)) : spec;
}

Inputs::~Inputs() {
  for (const auto& segment : segments) {
    std::error_code ignored;
    std::filesystem::remove(segment.trace_file, ignored);
  }
}

void make_inputs(Inputs& out, const WorkloadSpec& spec, double seconds,
                 std::uint64_t seed, const std::string& scratch_dir) {
  out.spec = spec;
  out.steady = spec.segment_ticks;
  out.continuation = 4;

  net::Graph graph;
  std::vector<net::Path> paths;
  stats::Rng topology_rng(spec.topology_seed);
  if (spec.topology == WorkloadSpec::Topology::kTree) {
    auto tree = topology::make_random_tree(
        {.nodes = spec.tree_nodes, .max_branching = spec.branching},
        topology_rng);
    paths = topology::tree_paths(tree);
    graph = std::move(tree.graph);
  } else {
    auto topo = topology::make_planetlab_like(
        {.hosts = spec.hosts, .as_count = 10, .routers_per_as = 8},
        topology_rng);
    paths = topology::route_paths(topo.graph, topo.hosts, topo.hosts).paths;
    graph = std::move(topo.graph);
  }
  const net::ReducedRoutingMatrix rrm(graph, std::move(paths));
  const auto& universe = rrm.matrix();
  out.universe = universe;

  // Churn: the reserve pool holds exactly the rows one segment's bursts
  // append; everything before it is monitored from the first tick.
  std::size_t base = universe.rows();
  if (spec.churn) {
    const std::size_t bursts = (out.steady - 1) / spec.burst_every;
    const std::size_t reserve = bursts * spec.burst_paths;
    if (2 * reserve > universe.rows()) {
      throw std::invalid_argument("segment too long for the reserve pool");
    }
    base = universe.rows() - reserve;
  }
  std::vector<std::vector<std::uint32_t>> base_rows;
  base_rows.reserve(base);
  for (std::size_t i = 0; i < base; ++i) {
    const auto row = universe.row(i);
    base_rows.emplace_back(row.begin(), row.end());
  }
  out.routing = linalg::SparseBinaryMatrix(universe.cols(), std::move(base_rows));

  sim::ScenarioConfig config;
  config.p = spec.p;
  if (spec.min_good_loss > 0.0) {
    config.loss_model.good_lo =
        std::max(config.loss_model.good_lo, spec.min_good_loss);
    config.loss_model.good_hi =
        std::max(config.loss_model.good_hi, spec.min_good_loss);
  }
  out.threshold_tl = config.loss_model.threshold_tl;
  std::filesystem::create_directories(scratch_dir);

  out.segments.resize(spec.segment_count(seconds));
  for (std::size_t k = 0; k < out.segments.size(); ++k) {
    Segment& segment = out.segments[k];
    const std::uint64_t segment_seed = seed * 0x9e3779b97f4a7c15ULL + k;
    segment.events.assign(out.rows(), {});
    if (spec.churn) {
      stats::Rng event_rng(segment_seed ^ 0xd1b54a32d192ed03ULL);
      std::size_t next_reserve = base;
      std::size_t left = base;  // path currently out (base = none)
      for (std::size_t s = 1; s < out.steady; ++s) {
        auto& tick_events = segment.events[out.first_steady_row() + s];
        if (s % spec.flap_every == 0) {
          const std::size_t rejoined = left;
          if (left < base) {
            tick_events.push_back(
                {.kind = ChurnEvent::Kind::kJoin, .path = left});
          }
          do {
            left = event_rng.index(base);
          } while (left == rejoined);
          tick_events.push_back({.kind = ChurnEvent::Kind::kLeave, .path = left});
        }
        if (s % spec.burst_every == 0) {
          ChurnEvent grow{.kind = ChurnEvent::Kind::kGrow};
          for (std::size_t i = 0; i < spec.burst_paths; ++i, ++next_reserve) {
            const auto row = universe.row(next_reserve);
            grow.rows.emplace_back(row.begin(), row.end());
          }
          tick_events.push_back(std::move(grow));
        }
      }
    }

    sim::SnapshotSimulator simulator(graph, rrm, config, segment_seed);
    segment.trace_file =
        (std::filesystem::path(scratch_dir) /
         (spec.name + "-" + std::to_string(seed) + "-" + std::to_string(k) +
          "-" + std::to_string(::getpid()) + ".ltbt"))
            .string();
    io::BinaryTraceWriter writer(segment.trace_file, universe.rows());
    segment.congested.reserve(out.rows());
    for (std::size_t t = 0; t < out.rows(); ++t) {
      auto snapshot = simulator.next();
      writer.append(snapshot.path_trans);
      segment.congested.push_back(std::move(snapshot.link_congested));
    }
    writer.finish();
    segment.trace.emplace(io::BinaryTraceReader::open(segment.trace_file));
  }
}

}  // namespace perfbench

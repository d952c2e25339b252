// Shared machinery for the experiment harnesses: scenario construction for
// the paper's topologies and the standard learn-then-infer pipeline with
// its accuracy metrics.  Each bench binary reproduces one table/figure and
// prints the same rows/series the paper reports.
#pragma once

#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "baselines/scfs.hpp"
#include "core/lia.hpp"
#include "core/metrics.hpp"
#include "net/routing_matrix.hpp"
#include "sim/probe_sim.hpp"
#include "stats/cdf.hpp"
#include "stats/moments.hpp"
#include "stats/rng.hpp"
#include "topology/generators.hpp"
#include "topology/overlay.hpp"
#include "topology/routing.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace losstomo::bench {

/// Standardised machine-readable bench output.  Every harness that wants a
/// perf trajectory accepts `--json <path>` (equivalently `json=<path>`) and
/// dumps its headline numbers as one flat JSON object, so successive PRs
/// can diff the recorded BENCH_*.json files.
class JsonReport {
 public:
  void set(const std::string& key, double value) {
    entries_.emplace_back(key, util::json::number(value));
  }
  void set(const std::string& key, std::size_t value) {
    entries_.emplace_back(key, std::to_string(value));
  }
  void set(const std::string& key, const std::string& value) {
    entries_.emplace_back(key, util::json::escaped(value));
  }

  /// Writes the object to `path` when non-empty; returns true if written.
  bool write(const std::string& path) const {
    if (path.empty()) return false;
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write json report: " + path);
    util::json::Writer w(out);
    w.begin_object();
    for (const auto& [key, token] : entries_) {
      w.key(key).value_raw(token);
    }
    w.end_object();
    w.finish();
    return true;
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;  // insertion order
};

/// Runs `trials` independent evaluations concurrently on the thread pool.
/// fn(trial, seed) receives a SplitMix64-decorrelated per-trial seed, so
/// the result set depends only on `seed` — not on the thread count or on
/// which worker ran which trial.  Results come back in trial order.
template <typename Fn>
auto run_trials(std::size_t trials, std::uint64_t seed, Fn&& fn) {
  using Result = std::invoke_result_t<Fn&, std::size_t, std::uint64_t>;
  // vector<bool> packs bits: adjacent elements share a byte, so concurrent
  // per-trial writes would tear.  Return a struct/int instead.
  static_assert(!std::is_same_v<Result, bool>,
                "run_trials cannot return bool (vector<bool> data race)");
  std::vector<Result> out(trials);
  util::parallel_for(trials, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      out[t] = fn(t, stats::splitmix64(seed ^ stats::splitmix64(t + 1)));
    }
  });
  return out;
}

/// A topology plus its routed measurement paths and reduced matrix.
struct Instance {
  net::Graph graph;
  std::vector<net::Path> paths;
  std::unique_ptr<net::ReducedRoutingMatrix> rrm;
  std::string name;
  bool is_tree = false;

  [[nodiscard]] const net::ReducedRoutingMatrix& matrix() const { return *rrm; }
};

inline Instance make_tree_instance(std::size_t nodes, std::size_t branching,
                                   std::uint64_t seed) {
  stats::Rng rng(seed);
  auto tree = topology::make_random_tree(
      {.nodes = nodes, .max_branching = branching}, rng);
  Instance inst;
  inst.paths = topology::tree_paths(tree);
  inst.graph = std::move(tree.graph);
  inst.rrm = std::make_unique<net::ReducedRoutingMatrix>(inst.graph, inst.paths);
  inst.name = "Tree";
  inst.is_tree = true;
  return inst;
}

inline Instance from_topology(topology::Topology topo, std::string name,
                              std::size_t host_count = 0) {
  Instance inst;
  auto hosts = topo.hosts;
  if (hosts.empty()) {
    hosts = topology::pick_low_degree_hosts(topo.graph, host_count);
  }
  auto routed = topology::route_paths(topo.graph, hosts, hosts);
  inst.paths = std::move(routed.paths);
  inst.graph = std::move(topo.graph);
  inst.rrm = std::make_unique<net::ReducedRoutingMatrix>(inst.graph, inst.paths);
  inst.name = std::move(name);
  return inst;
}

/// The six Table-2 topologies at a size scale in (0, 1]; scale 1
/// approximates the paper's setups (1000-node BRITE meshes, 500-beacon
/// PlanetLab, 801-beacon DIMES).
inline std::vector<Instance> table2_instances(double scale, std::uint64_t seed) {
  std::vector<Instance> out;
  const auto nodes = static_cast<std::size_t>(1000 * scale);
  const auto hosts = static_cast<std::size_t>(120 * scale);
  {
    stats::Rng rng(seed + 1);
    out.push_back(from_topology(
        topology::make_barabasi_albert({.nodes = nodes, .links_per_node = 2}, rng),
        "Barabasi-Albert", hosts));
  }
  {
    stats::Rng rng(seed + 2);
    out.push_back(from_topology(
        topology::make_waxman({.nodes = nodes, .links_per_node = 2}, rng),
        "Waxman", hosts));
  }
  {
    stats::Rng rng(seed + 3);
    out.push_back(from_topology(
        topology::make_hierarchical_top_down(
            {.as_count = std::max<std::size_t>(4, nodes / 50),
             .routers_per_as = 50},
            rng),
        "Hierarchical (Top-Down)", hosts));
  }
  {
    stats::Rng rng(seed + 4);
    out.push_back(from_topology(
        topology::make_hierarchical_bottom_up({.nodes = nodes, .grid = 5}, rng),
        "Hierarchical (Bottom-Up)", hosts));
  }
  {
    stats::Rng rng(seed + 5);
    out.push_back(from_topology(
        topology::make_planetlab_like_scaled(scale * 0.5, rng), "PlanetLab"));
  }
  {
    stats::Rng rng(seed + 6);
    out.push_back(from_topology(
        topology::make_dimes_like_scaled(scale * 0.35, rng), "DIMES"));
  }
  return out;
}

/// One learn-then-infer run.
struct PipelineOutcome {
  core::LocationAccuracy lia;
  core::LocationAccuracy scfs;           // trees only
  core::ErrorVectors errors;             // per-link |err| and f_delta
  std::size_t congested_links = 0;       // |F| in the evaluation snapshot
  std::size_t kept_columns = 0;          // columns of R*
  std::size_t congested_evicted = 0;     // congested columns eliminated
  bool congested_removed = false;        // any congested column eliminated
  double learn_seconds = 0.0;
  double infer_seconds = 0.0;
};

inline PipelineOutcome run_pipeline(const Instance& inst,
                                    const sim::ScenarioConfig& config,
                                    std::size_t m, std::uint64_t seed,
                                    bool run_scfs = false,
                                    const core::LiaOptions& lia_options = {}) {
  sim::SnapshotSimulator simulator(inst.graph, inst.matrix(), config, seed);
  auto series = sim::run_snapshots(simulator, m + 1);
  const auto& rrm = inst.matrix();
  stats::SnapshotMatrix history(rrm.path_count(), m);
  for (std::size_t l = 0; l < m; ++l) {
    const auto& y = series.snapshots[l].path_log_trans;
    std::copy(y.begin(), y.end(), history.sample(l).begin());
  }
  const auto& current = series.snapshots[m];

  PipelineOutcome out;
  core::Lia lia(rrm.matrix(), lia_options);
  util::Timer learn_timer;
  lia.learn(history);
  out.learn_seconds = learn_timer.seconds();
  util::Timer infer_timer;
  const auto inference = lia.infer(current.path_log_trans);
  out.infer_seconds = infer_timer.seconds();

  const double tl = config.loss_model.threshold_tl;
  out.lia = core::locate_congested(inference.loss, current.link_congested, tl);
  out.errors = core::per_link_errors(current.link_true_loss, inference.loss);
  out.kept_columns = lia.elimination().kept.size();
  for (std::size_t k = 0; k < rrm.link_count(); ++k) {
    if (current.link_congested[k]) {
      ++out.congested_links;
      if (inference.removed[k]) {
        ++out.congested_evicted;
        out.congested_removed = true;
      }
    }
  }
  if (run_scfs && inst.is_tree) {
    const auto bad = baselines::binarize_paths(
        current.path_trans, baselines::path_lengths(rrm.matrix()), tl);
    out.scfs = core::locate_congested(baselines::scfs_tree(rrm, bad),
                                      current.link_congested);
  }
  return out;
}

}  // namespace losstomo::bench

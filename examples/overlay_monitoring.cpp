// Overlay monitoring campaign: the paper's §7 deployment in simulation.
//
// A PlanetLab-style overlay of end-hosts probes itself periodically; every
// five minutes a snapshot of all path loss rates reaches a coordinator,
// which maintains a sliding window of m snapshots, re-learns link
// variances, and flags the congested links of the newest snapshot —
// including whether each sits on an inter-AS (peering) or intra-AS link.
//
// The coordinator runs the streaming monitor: the window covariance is
// kept current by O(np^2) rank-1 updates and the normal equations are
// refreshed from it, so the per-tick cost is independent of m.
//
// Run:  ./build/examples/overlay_monitoring [hosts=24] [windows=12] [m=25]
#include <iostream>

#include "core/monitor.hpp"
#include "net/routing_matrix.hpp"
#include "sim/probe_sim.hpp"
#include "stats/moments.hpp"
#include "topology/overlay.hpp"
#include "topology/routing.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace losstomo;

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto hosts = args.get_size("hosts", 30);
  const auto windows = args.get_size("windows", 12);
  const auto m = args.get_size("m", 40);
  const auto seed = args.get_size("seed", 1);
  args.finish();

  // --- Deploy the overlay -------------------------------------------------
  stats::Rng rng(seed);
  auto topo = topology::make_planetlab_like(
      {.hosts = hosts, .as_count = 10, .routers_per_as = 8}, rng);
  const auto routed = topology::route_paths(topo.graph, topo.hosts, topo.hosts);
  const net::ReducedRoutingMatrix rrm(topo.graph, routed.paths);
  std::cout << "overlay: " << hosts << " hosts, "
            << topo.graph.node_count() << " nodes, " << rrm.path_count()
            << " paths, " << rrm.link_count() << " measurable links ("
            << routed.fluttering_removed << " fluttering paths removed)\n\n";

  // --- Network weather: chronic hot spots with short episodes -------------
  sim::ScenarioConfig config;
  config.p = 0.04;
  config.dynamics = sim::CongestionDynamics::kMarkov;
  config.persistence = 0.3;
  config.congestible_fraction = 0.3;
  config.inter_as_congestion_bias = 2.5;
  sim::SnapshotSimulator simulator(topo.graph, rrm, config, seed * 97);

  // --- Monitoring loop -----------------------------------------------------
  core::LiaMonitor monitor(rrm.matrix(), {.window = m});
  util::Table log({"tick", "congested links", "inter-AS", "worst link loss",
                   "detected/actual"});
  stats::RunningStat tick_seconds;
  std::size_t tick = 0;
  while (tick < windows) {
    const auto snap = simulator.next();
    util::Timer tick_timer;
    const auto inference = monitor.observe(snap.path_log_trans);
    if (!inference) continue;  // still filling the learning window
    tick_seconds.add(tick_timer.seconds());
    ++tick;

    std::size_t flagged = 0, inter = 0, hits = 0, actual = 0;
    double worst = 0.0;
    for (std::size_t k = 0; k < rrm.link_count(); ++k) {
      if (snap.link_congested[k]) ++actual;
      if (inference->loss[k] > config.loss_model.threshold_tl) {
        ++flagged;
        if (rrm.link_is_inter_as(topo.graph, k)) ++inter;
        if (snap.link_congested[k]) ++hits;
        worst = std::max(worst, inference->loss[k]);
      }
    }
    log.add_row({std::to_string(tick), std::to_string(flagged),
                 std::to_string(inter), util::Table::num(worst, 3),
                 std::to_string(hits) + "/" + std::to_string(actual)});
  }
  log.print(std::cout);
  std::cout << "\nEach tick: variances re-learned on the last " << m
            << " snapshots, then the newest snapshot diagnosed (LIA).\n"
            << "Mean tick "
            << util::Table::num(tick_seconds.mean() * 1e3, 3) << " ms over "
            << windows << " diagnosed ticks.\n";
  return 0;
}

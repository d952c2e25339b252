// Telemetry overhead probe: the steady drop-negative monitor tick on a
// PlanetLab-style overlay (72 hosts give ~5100 paths), plain and with an
// obs::Registry plus flight recorder attached — per-tick publishing, phase
// spans and recorder writes all on.  The budget is <= 2% of the plain tick.
//
//   build/bench_telemetry_overhead [overlay_hosts=72] [overlay_m=50]
//                                  [overlay_ticks=8] [seed=41]
//                                  [--json <path>]
//
// Both runs consume the identical feed (a fresh simulator on the same seed)
// with the same monitor configuration; each figure is the mean of the
// `overlay_ticks` steady ticks after the window fills and the first
// (factorizing) relearn.  The worker count is LOSSTOMO_THREADS.  Compiled
// with LOSSTOMO_NO_TELEMETRY this measures the stubs.
#include "common.hpp"
#include "core/monitor.hpp"
#include "obs/registry.hpp"

namespace {

using namespace losstomo;

double steady_tick_seconds(const net::Graph& graph,
                           const net::ReducedRoutingMatrix& rrm,
                           const core::MonitorOptions& options,
                           std::size_t ticks, std::uint64_t seed) {
  core::LiaMonitor monitor(rrm.matrix(), options);
  sim::ScenarioConfig config;
  config.p = 0.04;
  sim::SnapshotSimulator feed(graph, rrm, config, seed * 7);
  const std::size_t m = options.window;
  stats::RunningStat stat;
  for (std::size_t t = 0; t < m + 2 + ticks; ++t) {
    const auto y = feed.next().path_log_trans;
    util::Timer tick_timer;
    monitor.observe(y);
    if (t > m + 1) stat.add(tick_timer.seconds());
  }
  return stat.mean();
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto hosts = args.get_size("overlay_hosts", 72);
  const auto m = args.get_size("overlay_m", 50);
  const auto ticks = args.get_size("overlay_ticks", 8);
  const auto seed = args.get_size("seed", 41);
  const auto json_path = args.get_string("json", "");
  args.finish();

  stats::Rng rng(seed);
  auto topo = topology::make_planetlab_like(
      {.hosts = hosts, .as_count = 10, .routers_per_as = 8}, rng);
  const auto routed = topology::route_paths(topo.graph, topo.hosts, topo.hosts);
  const net::ReducedRoutingMatrix rrm(topo.graph, routed.paths);

  core::MonitorOptions options;
  options.window = m;
  options.lia.variance.negatives = core::NegativeCovariancePolicy::kDrop;
  const double off = steady_tick_seconds(topo.graph, rrm, options, ticks, seed);

  obs::Registry registry;
  registry.enable_flight_recorder(256);
  options.telemetry = &registry;
  const double on = steady_tick_seconds(topo.graph, rrm, options, ticks, seed);
  const double frac = on / off - 1.0;

  std::cout << "telemetry_overhead: overlay (" << hosts
            << " hosts) np=" << rrm.path_count()
            << " links=" << rrm.link_count() << " m=" << m
            << " ticks=" << ticks << " threads=" << util::default_threads()
            << "\n  plain tick " << util::Table::num(off, 5)
            << " s, instrumented tick " << util::Table::num(on, 5) << " s ("
            << util::Table::num(100.0 * frac, 2)
            << "% vs plain; budget 2%)\n";

  bench::JsonReport report;
  report.set("bench", std::string("telemetry_overhead"));
  report.set("threads", util::default_threads());
  report.set("overlay_hosts", hosts);
  report.set("overlay_np", rrm.path_count());
  report.set("overlay_nc", rrm.link_count());
  report.set("overlay_m", m);
  report.set("telemetry_overhead_tick_off_seconds", off);
  report.set("telemetry_overhead_tick_on_seconds", on);
  report.set("telemetry_overhead_frac", frac);
  report.write(json_path);
  return 0;
}

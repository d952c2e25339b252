// lia_cli — run LIA on measurement files (the "bring your own traces"
// entry point).
//
// Modes:
//   generate: writes a sample campaign (topology/paths/snapshots files)
//             from the built-in simulator, so the file formats are easy to
//             copy.  format=binary emits the snapshots as an mmap-able
//             io::BinaryTrace instead of text (direct emission through the
//             ingestion pipeline — no intermediate campaign in memory):
//       lia_cli mode=generate out=/tmp/campaign [hosts=16] [m=50]
//               [format=text|binary]
//   infer:    reads a campaign, learns on all but the last snapshot,
//             diagnoses the last one, prints per-link loss rates and the
//             identifiability report:
//       lia_cli mode=infer topology=... paths=... snapshots=... [tl=0.002]
//   monitor:  streams the snapshot file through the ingestion pipeline
//             (io/pipeline.hpp) into LiaMonitor, so arbitrarily long
//             traces run at O(np) reader memory.  The format is detected
//             by content (binary traces by magic) and binary ingestion is
//             zero-copy off the mmap; thin=k keeps every k-th snapshot:
//       lia_cli mode=monitor topology=... paths=... snapshots=... [m=50]
//               [relearn_every=1] [engine=streaming|batch] [tl=0.002]
//               [format=auto|text|binary] [thin=1]
//   convert:  converts a snapshot campaign between the text and binary
//             trace formats (direction auto-detected from the input;
//             doubles round-trip bit-identically in both directions):
//       lia_cli mode=convert in=<snapshots> out=<snapshots>
//   scenario: runs a scripted dynamic-overlay scenario (path churn, link
//             failures, regime shifts — src/scenario/) through the
//             streaming monitor and reports per-event diagnostics.
//             record= captures the exact monitor feed as a binary trace;
//             replay= drives the monitor from such a trace instead of the
//             simulator (bit-identical inferences):
//       lia_cli mode=scenario scenario=scenarios/flapping_mesh.scn
//               [ticks=] [window=] [engine=streaming|batch]
//               [accumulator=dense|pairs] [tl=0.002]
//               [record=<trace>] [replay=<trace>]
//   ingest-drill: end-to-end parity drill for the binary ingestion path.
//             Simulates a campaign, writes it both as text and as a binary
//             trace, monitors both (text through the classic SnapshotStream
//             loop, binary zero-copy through the pipeline off the mmap),
//             and verifies every inference is bit-identical (exit 0):
//       lia_cli mode=ingest-drill [hosts=12] [m=30] [ticks=60] [dir=/tmp]
//   checkpoint-drill: crash-recovery drill (io/checkpoint.hpp).  Runs the
//             scenario uninterrupted as a reference, re-runs it killing the
//             process state at a scripted tick, restores from the
//             checkpoint file, and verifies the resumed run is
//             bit-identical with no extra refactorizations.  fault=
//             corrupts the checkpoint instead and verifies the restore is
//             rejected with the right typed error (exit 0 on clean
//             rejection):
//       lia_cli mode=checkpoint-drill scenario=scenarios/flapping_mesh.scn
//               [kill_at=] [file=/tmp/losstomo_drill.ckpt] [ticks=]
//               [window=] [threads=1] [fault=none|truncate|bitflip|version]
//
// File formats are documented in src/io/trace_io.hpp (measurements) and
// src/scenario/spec.hpp (scenario scripts; shipped examples in scenarios/).
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <iterator>

#include "core/identifiability.hpp"
#include "core/lia.hpp"
#include "core/monitor.hpp"
#include "io/binary_trace.hpp"
#include "io/checkpoint.hpp"
#include "io/pipeline.hpp"
#include "io/scenario_io.hpp"
#include "io/trace_io.hpp"
#include "net/routing_matrix.hpp"
#include "obs/registry.hpp"
#include "scenario/runner.hpp"
#include "sim/probe_sim.hpp"
#include "topology/overlay.hpp"
#include "topology/routing.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace losstomo;

namespace {

void print_usage(std::ostream& os) {
  os << "usage: lia_cli mode=<mode> [key=value ...]\n"
        "modes:\n"
        "  generate   out= [hosts=] [m=] [seed=] [format=text|binary]\n"
        "  infer      topology= paths= snapshots= [tl=] [top=]\n"
        "  monitor    topology= paths= snapshots= [m=] [relearn_every=]\n"
        "             [engine=streaming|batch] [format=auto|text|binary]\n"
        "             [thin=] [tl=]\n"
        "             [metrics=<file>] [metrics_every=<ticks>]\n"
        "  convert    in=<snapshots> out=<snapshots>\n"
        "  scenario   scenario=<file.scn> [ticks=] [window=]\n"
        "             [engine=streaming|batch] [accumulator=dense|pairs]\n"
        "             [tl=] [record=] [replay=]\n"
        "             [metrics=<file>] [metrics_every=<ticks>]\n"
        "  ingest-drill      [hosts=] [m=] [ticks=] [dir=] [threads=]\n"
        "  checkpoint-drill  scenario= [kill_at=] [file=] [ticks=]\n"
        "                    [window=] [threads=]\n"
        "                    [fault=none|truncate|bitflip|version]\n"
        "metrics= writes a telemetry snapshot (losstomo.metrics JSON; a\n"
        ".prom suffix switches to Prometheus text) at the end of the run;\n"
        "metrics_every=N also rewrites it every N ticks.  Unknown keys and\n"
        "modes exit 2.  Full documentation: docs/OBSERVABILITY.md and the\n"
        "header of examples/lia_cli.cpp.\n";
}

int generate(const util::Args& args) {
  const auto out = args.get_string("out", "/tmp/losstomo_campaign");
  const auto hosts = args.get_size("hosts", 16);
  const auto m = args.get_size("m", 50);
  const auto seed = args.get_size("seed", 1);
  const auto format = args.get_string("format", "text");
  args.finish();
  if (format != "text" && format != "binary") {
    std::cerr << "format must be text|binary\n";
    return 2;
  }

  stats::Rng rng(seed);
  auto topo = topology::make_planetlab_like(
      {.hosts = hosts, .as_count = 8, .routers_per_as = 6}, rng);
  const auto routed = topology::route_paths(topo.graph, topo.hosts, topo.hosts);
  const net::ReducedRoutingMatrix rrm(topo.graph, routed.paths);

  sim::ScenarioConfig config;
  config.p = 0.08;
  sim::SnapshotSimulator simulator(topo.graph, rrm, config, seed * 5);
  std::size_t snapshots = 0;
  if (format == "binary") {
    // Direct emission: simulator -> binary trace, never materialising the
    // campaign in memory.
    io::SimulatorSource source(simulator, m + 1);
    io::BinaryTraceSink sink(out + ".snapshots");
    snapshots = source.drain(sink);
  } else {
    std::vector<std::vector<double>> phi_rows;
    for (std::size_t l = 0; l < m + 1; ++l) {
      phi_rows.push_back(simulator.next().path_trans);
    }
    io::save_snapshots(out + ".snapshots", phi_rows);
    snapshots = phi_rows.size();
  }

  io::save_topology(out + ".topology", topo.graph);
  io::save_paths(out + ".paths", routed.paths);
  std::cout << "wrote " << out << ".topology (" << topo.graph.edge_count()
            << " edges), " << out << ".paths (" << routed.paths.size()
            << " paths), " << out << ".snapshots (" << snapshots << ' '
            << format << " snapshots)\n"
            << "try:  lia_cli mode=infer topology=" << out
            << ".topology paths=" << out << ".paths snapshots=" << out
            << ".snapshots\n";
  return 0;
}

int infer(const util::Args& args) {
  const auto topology_file = args.get_string("topology", "");
  const auto paths_file = args.get_string("paths", "");
  const auto snapshots_file = args.get_string("snapshots", "");
  const double tl = args.get_double("tl", 0.002);
  const auto top = args.get_size("top", 20);
  args.finish();
  if (topology_file.empty() || paths_file.empty() || snapshots_file.empty()) {
    std::cerr << "mode=infer needs topology=, paths=, snapshots= files\n";
    return 2;
  }

  const auto graph = io::load_topology(topology_file);
  const auto paths = io::load_paths(paths_file);
  const auto y = io::load_snapshots(snapshots_file);
  const net::ReducedRoutingMatrix rrm(graph, paths);
  if (y.dim() != rrm.path_count()) {
    std::cerr << "snapshot arity " << y.dim() << " != path count "
              << rrm.path_count() << '\n';
    return 2;
  }
  if (y.count() < 3) {
    std::cerr << "need at least 3 snapshots (m >= 2 to learn + 1 to infer)\n";
    return 2;
  }
  std::cout << "campaign: " << rrm.path_count() << " paths, "
            << rrm.link_count() << " measurable links, " << y.count()
            << " snapshots\n";

  const auto report = core::analyze_identifiability(rrm.matrix());
  std::cout << "identifiability: rank(R) = " << report.routing_rank
            << ", rank(A) = " << report.augmented_rank << " of "
            << report.link_count
            << (report.variances_identifiable()
                    ? " -> variances identifiable (Theorem 1)\n"
                    : " -> WARNING: some variances not identifiable\n");

  // Learn on snapshots [0, m); infer snapshot m.
  const std::size_t m = y.count() - 1;
  stats::SnapshotMatrix history(y.dim(), m);
  for (std::size_t l = 0; l < m; ++l) {
    const auto src = y.sample(l);
    std::copy(src.begin(), src.end(), history.sample(l).begin());
  }
  core::Lia lia(rrm.matrix());
  const auto& learned = lia.learn(history);
  const auto inference = lia.infer(y.sample(m));
  std::cout << "phase 1: " << learned.method << ", "
            << learned.equations_used << " equations ("
            << learned.equations_dropped << " dropped)\n\n";

  // Report: congested links first, by inferred loss.
  std::vector<std::size_t> order(rrm.link_count());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return inference.loss[a] > inference.loss[b];
  });
  util::Table table({"link", "edges", "inferred loss", "learned variance",
                     "verdict"});
  std::size_t shown = 0;
  for (const auto k : order) {
    if (shown++ >= top) break;
    std::string edges;
    for (const auto e : rrm.members(k)) {
      if (!edges.empty()) edges += ",";
      edges += std::to_string(e);
    }
    table.add_row({"link#" + std::to_string(k), edges,
                   util::Table::num(inference.loss[k], 4),
                   util::Table::num(learned.v[k], 6),
                   inference.loss[k] > tl ? "CONGESTED" : "ok"});
  }
  table.print(std::cout);
  return 0;
}

int monitor(const util::Args& args) {
  const auto topology_file = args.get_string("topology", "");
  const auto paths_file = args.get_string("paths", "");
  const auto snapshots_file = args.get_string("snapshots", "");
  const double tl = args.get_double("tl", 0.002);
  const auto m = args.get_size("m", 50);
  const auto relearn_every = args.get_size("relearn_every", 1);
  const auto engine = args.get_string("engine", "streaming");
  const auto format = args.get_string("format", "auto");
  const auto thin_every = args.get_size("thin", 1);
  const auto metrics_file = args.get_string("metrics", "");
  const auto metrics_every = args.get_size("metrics_every", 0);
  args.finish();
  if (topology_file.empty() || paths_file.empty() || snapshots_file.empty()) {
    std::cerr << "mode=monitor needs topology=, paths=, snapshots= files\n";
    return 2;
  }
  if (engine != "streaming" && engine != "batch") {
    std::cerr << "engine must be streaming|batch\n";
    return 2;
  }
  if (format != "auto" && format != "text" && format != "binary") {
    std::cerr << "format must be auto|text|binary\n";
    return 2;
  }

  const auto graph = io::load_topology(topology_file);
  const auto paths = io::load_paths(paths_file);
  const net::ReducedRoutingMatrix rrm(graph, paths);
  auto opened = io::open_snapshot_source(snapshots_file);
  if (format == "binary" && !opened.binary) {
    std::cerr << snapshots_file << " is not a binary trace\n";
    return 2;
  }
  if (format == "text" && opened.binary) {
    std::cerr << snapshots_file << " is a binary trace (use format=auto)\n";
    return 2;
  }

  // A metrics= file arms the telemetry registry: the monitor publishes its
  // deterministic counters into it every tick, the pipeline elements count
  // rows/bytes through them, and the flight recorder keeps the last phase
  // spans for a crash dump.
  obs::Registry registry;
  const bool telemetry = !metrics_file.empty();
  if (telemetry) registry.enable_flight_recorder(256);

  core::MonitorOptions monitor_options;
  monitor_options.window = m;
  monitor_options.relearn_every = relearn_every;
  if (telemetry) monitor_options.telemetry = &registry;
  monitor_options.engine = engine == "batch" ? core::MonitorEngine::kBatch
                                             : core::MonitorEngine::kStreaming;
  core::LiaMonitor monitor(rrm.matrix(), monitor_options);
  util::Table log({"tick", "congested links", "worst link loss"});
  std::size_t diagnosed = 0;
  // source -> thin -> log-transform -> monitor: the same chain for text
  // and binary input; binary batches arrive zero-copy off the mmap.
  io::Thin thin(thin_every);
  io::LogTransform log_transform;
  io::MonitorSink sink(
      monitor, [&](std::size_t tick, const core::LossInference& inference) {
        ++diagnosed;
        if (telemetry && metrics_every > 0 && diagnosed % metrics_every == 0) {
          registry.write_file(metrics_file);
        }
        std::size_t flagged = 0;
        double worst = 0.0;
        for (std::size_t k = 0; k < rrm.link_count(); ++k) {
          if (inference.loss[k] > tl) {
            ++flagged;
            worst = std::max(worst, inference.loss[k]);
          }
        }
        log.add_row({std::to_string(tick + 1), std::to_string(flagged),
                     util::Table::num(worst, 4)});
      });
  thin.to(log_transform).to(sink);
  if (telemetry) {
    opened.source->set_telemetry(&registry, "source");
    thin.set_telemetry(&registry, "thin");
    log_transform.set_telemetry(&registry, "log_transform");
    sink.set_telemetry(&registry, "monitor_sink");
  }
  std::size_t streamed = 0;
  try {
    streamed = opened.source->drain(thin);
  } catch (const std::invalid_argument& e) {
    std::cerr << "snapshot feed rejected (" << e.what() << "); expected arity "
              << rrm.path_count() << '\n';
    return 2;
  } catch (...) {
    if (telemetry) {
      // Crash dump: the last phase spans, oldest first, before the error
      // propagates — what the run was doing when it died.
      std::cerr << "flight recorder:\n";
      registry.write_flight_recorder_json(std::cerr);
    }
    throw;
  }
  log.print(std::cout);
  std::cout << '\n'
            << streamed << " snapshots streamed ("
            << (opened.binary ? "binary, zero-copy" : "text") << "), "
            << diagnosed << " diagnosed (window m=" << m << ", " << engine
            << " engine)\n";
  if (streamed <= m) {
    std::cout << "note: the first m snapshots are learning-only; feed more "
                 "than m to see diagnoses\n";
  }
  if (telemetry) {
    registry.write_file(metrics_file);
    std::cout << "metrics -> " << metrics_file << '\n';
  }
  return 0;
}

int scenario_mode(const util::Args& args) {
  const auto scenario_file = args.get_string("scenario", "");
  const double tl = args.get_double("tl", 0.002);
  const auto ticks_override = args.get_size("ticks", 0);
  const auto window_override = args.get_size("window", 0);
  const auto engine = args.get_string("engine", "streaming");
  const auto accumulator = args.get_string("accumulator", "dense");
  const auto record_file = args.get_string("record", "");
  const auto replay_file = args.get_string("replay", "");
  const auto metrics_file = args.get_string("metrics", "");
  const auto metrics_every = args.get_size("metrics_every", 0);
  args.finish();
  if (scenario_file.empty()) {
    std::cerr << "mode=scenario needs scenario=<file> "
                 "(see scenarios/*.scn)\n";
    return 2;
  }
  if (engine != "streaming" && engine != "batch") {
    std::cerr << "engine must be streaming|batch\n";
    return 2;
  }
  if (accumulator != "dense" && accumulator != "pairs") {
    std::cerr << "accumulator must be dense|pairs\n";
    return 2;
  }

  auto spec = io::load_scenario(scenario_file);
  if (window_override > 0) spec.window = window_override;
  if (ticks_override > 0) {
    spec.ticks = ticks_override;
    // Keep only the events the shortened run reaches.
    std::erase_if(spec.events, [&](const scenario::Event& e) {
      return e.tick >= spec.ticks;
    });
  }
  core::MonitorOptions options;
  options.engine = engine == "batch" ? core::MonitorEngine::kBatch
                                     : core::MonitorEngine::kStreaming;
  options.accumulator = accumulator == "pairs"
                            ? core::CovarianceAccumulator::kSharingPairs
                            : core::CovarianceAccumulator::kDense;
  // metrics= arms telemetry: the runner and monitor publish deterministic
  // counters + per-event-type churn costs, the flight recorder keeps the
  // last phase spans for a crash dump.
  obs::Registry registry;
  const bool telemetry = !metrics_file.empty();
  if (telemetry) {
    registry.enable_flight_recorder(256);
    options.telemetry = &registry;
  }
  scenario::ScenarioRunner runner(std::move(spec), options);
  if (!record_file.empty()) {
    runner.record_trace(record_file);
    std::cout << "recording monitor feed -> " << record_file << '\n';
  }
  if (!replay_file.empty()) {
    runner.replay_trace(replay_file);
    std::cout << "replaying monitor feed <- " << replay_file
              << " (simulator bypassed)\n";
  }
  std::cout << "scenario '" << runner.spec().name << "': "
            << runner.universe().path_count() << " universe paths ("
            << runner.base_path_count() << " base), "
            << runner.universe().link_count() << " links, window "
            << runner.spec().window << ", " << runner.spec().ticks
            << " ticks, " << runner.timeline().size() << " events ("
            << engine << " engine, " << accumulator << " accumulator";
  std::cout << ")\n\n";

  util::Table log({"tick", "event(s)", "active", "congested", "worst loss"});
  const auto on_tick = [&](std::size_t tick, std::size_t events,
                           const std::optional<core::LossInference>&
                               inference) {
    if (telemetry && metrics_every > 0 && (tick + 1) % metrics_every == 0) {
      registry.write_file(metrics_file);
    }
    if (events == 0 && !inference) return;
    std::string names;
    for (const auto& e : runner.timeline().at(tick)) {
      if (!names.empty()) names += ",";
      names += scenario::event_type_name(e.type);
    }
    if (events == 0 && names.empty() && inference) {
      // Quiet diagnosing tick: log only a sparse sample to keep the
      // output readable on long runs.
      if (tick % 25 != 0) return;
    }
    std::size_t flagged = 0;
    double worst = 0.0;
    if (inference) {
      for (const double loss : inference->loss) {
        if (loss > tl) {
          ++flagged;
          worst = std::max(worst, loss);
        }
      }
    }
    log.add_row({std::to_string(tick), names.empty() ? "-" : names,
                 std::to_string(runner.monitor().active_path_count()),
                 inference ? std::to_string(flagged) : "-",
                 inference ? util::Table::num(worst, 4) : "-"});
  };
  scenario::ScenarioOutcome outcome;
  try {
    outcome = runner.run(on_tick);
  } catch (...) {
    if (telemetry) {
      std::cerr << "flight recorder:\n";
      registry.write_flight_recorder_json(std::cerr);
    }
    throw;
  }
  log.print(std::cout);
  std::cout << '\n'
            << outcome.ticks << " ticks, " << outcome.events_applied
            << " events applied, " << outcome.diagnosed << " diagnosed, "
            << outcome.active_paths_end << " paths active at end\n"
            << "steady tick " << util::Table::num(outcome.steady_tick_seconds, 5)
            << " s, event tick "
            << util::Table::num(outcome.event_tick_seconds, 5) << " s, max "
            << util::Table::num(outcome.max_tick_seconds, 5) << " s\n";
  if (const auto* eqs = runner.monitor().streaming_equations()) {
    std::cout << "factor cache: " << eqs->refactorizations()
              << " refactorizations, " << eqs->rank1_updates()
              << " rank-1 updates (" << eqs->pin_updates() << " pin borders), "
              << eqs->refine_iterations() << " refinement steps, "
              << eqs->links_pinned() << " links pinned\n";
  }
  if (telemetry) {
    registry.write_file(metrics_file);
    std::cout << "metrics -> " << metrics_file << '\n';
  }
  return 0;
}

int convert(const util::Args& args) {
  const auto in = args.get_string("in", "");
  const auto out = args.get_string("out", "");
  args.finish();
  if (in.empty() || out.empty()) {
    std::cerr << "mode=convert needs in=<snapshots> out=<snapshots>\n";
    return 2;
  }
  auto opened = io::open_snapshot_source(in);
  std::size_t snapshots = 0;
  if (opened.binary) {
    if (opened.log_transformed) {
      std::cerr << in
                << " stores log-transformed Y (a recorded scenario feed); "
                   "the text format stores phi, so this trace has no "
                   "lossless text form\n";
      return 2;
    }
    std::ofstream os(out);
    if (!os) {
      std::cerr << "cannot open for writing: " << out << '\n';
      return 2;
    }
    io::TextSnapshotSink sink(os);
    snapshots = opened.source->drain(sink);
    std::cout << "converted binary -> text: " << snapshots << " snapshots -> "
              << out << '\n';
  } else {
    io::BinaryTraceSink sink(out);
    snapshots = opened.source->drain(sink);
    std::cout << "converted text -> binary: " << snapshots << " snapshots -> "
              << out << '\n';
  }
  return 0;
}

// End-to-end parity drill: the binary ingestion path (mmap reader +
// pipeline) must produce inferences bit-identical to the classic text
// loop on the same campaign.  Exercised under ASan in CI to cover the
// mmap reader, and in the Release smoke as the convert -> run -> compare
// gate.
int ingest_drill(const util::Args& args) {
  const auto hosts = args.get_size("hosts", 12);
  const auto m = args.get_size("m", 30);
  const auto ticks = args.get_size("ticks", 60);
  const auto seed = args.get_size("seed", 7);
  const auto dir = args.get_string("dir", "/tmp");
  const auto threads = args.get_size("threads", 0);
  args.finish();

  stats::Rng rng(seed);
  auto topo = topology::make_planetlab_like(
      {.hosts = hosts, .as_count = 6, .routers_per_as = 5}, rng);
  const auto routed = topology::route_paths(topo.graph, topo.hosts, topo.hosts);
  const net::ReducedRoutingMatrix rrm(topo.graph, routed.paths);
  sim::ScenarioConfig config;
  config.p = 0.12;
  sim::SnapshotSimulator simulator(topo.graph, rrm, config, seed * 11);
  std::vector<std::vector<double>> phi_rows;
  for (std::size_t t = 0; t < ticks; ++t) {
    phi_rows.push_back(simulator.next().path_trans);
  }
  const auto text_file = dir + "/losstomo_ingest.snapshots";
  const auto binary_file = dir + "/losstomo_ingest.snapshots.bin";
  io::save_snapshots(text_file, phi_rows);
  {
    io::BinaryTraceWriter writer(binary_file, rrm.path_count());
    for (const auto& row : phi_rows) writer.append(row);
    writer.finish();
  }
  std::cout << "campaign: " << rrm.path_count() << " paths, " << ticks
            << " snapshots (text + binary)\n";

  core::MonitorOptions options{.window = m};
  options.lia.variance.threads = threads;

  // Reference: the classic per-line text loop.
  std::vector<linalg::Vector> text_inferences;
  {
    core::LiaMonitor monitor(rrm.matrix(), options);
    std::ifstream is(text_file);
    io::SnapshotStream stream(is);
    std::vector<double> y;
    while (stream.next(y)) {
      if (const auto inference = monitor.observe(y)) {
        text_inferences.push_back(inference->loss);
      }
    }
  }

  // Candidate: zero-copy binary ingestion through the pipeline.
  std::vector<linalg::Vector> binary_inferences;
  const auto reader = io::BinaryTraceReader::open(binary_file);
  std::cout << "binary trace: " << reader.snapshots() << " snapshots, "
            << (reader.mapped() ? "mmap" : "buffered") << " payload\n";
  {
    core::LiaMonitor monitor(rrm.matrix(), options);
    io::BinaryTraceSource source(reader);
    io::LogTransform log_transform(threads);
    io::MonitorSink sink(monitor,
                         [&](std::size_t, const core::LossInference& inf) {
                           binary_inferences.push_back(inf.loss);
                         });
    log_transform.to(sink);
    source.drain(log_transform);
  }

  if (text_inferences.size() != binary_inferences.size()) {
    std::cerr << "FAIL: " << text_inferences.size() << " text vs "
              << binary_inferences.size() << " binary diagnoses\n";
    return 1;
  }
  for (std::size_t t = 0; t < text_inferences.size(); ++t) {
    for (std::size_t k = 0; k < text_inferences[t].size(); ++k) {
      if (text_inferences[t][k] != binary_inferences[t][k]) {
        std::cerr << "FAIL: inference diverges at tick " << t << " link " << k
                  << '\n';
        return 1;
      }
    }
  }
  std::cout << text_inferences.size()
            << " diagnoses bit-identical across text and binary ingestion\n";
  return 0;
}

// Overwrites `file` with a deliberately damaged copy of itself.
void corrupt_checkpoint(const std::string& file, const std::string& fault) {
  std::ifstream in(file, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  if (bytes.empty()) throw std::runtime_error("empty checkpoint: " + file);
  if (fault == "truncate") {
    bytes.resize(bytes.size() / 2);
  } else if (fault == "bitflip") {
    bytes[bytes.size() / 2] ^= 0x20;
  } else if (fault == "version") {
    bytes[4] ^= 0xff;  // version field sits right after the 4-byte magic
  } else {
    throw std::runtime_error("unknown fault: " + fault);
  }
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

int checkpoint_drill(const util::Args& args) {
  const auto scenario_file = args.get_string("scenario", "");
  const auto ckpt_file =
      args.get_string("file", "/tmp/losstomo_drill.ckpt");
  auto kill_at = args.get_size("kill_at", 0);
  const auto ticks_override = args.get_size("ticks", 0);
  const auto window_override = args.get_size("window", 0);
  const auto threads = args.get_size("threads", 1);
  const auto fault = args.get_string("fault", "none");
  args.finish();
  if (scenario_file.empty()) {
    std::cerr << "mode=checkpoint-drill needs scenario=<file>\n";
    return 2;
  }
  auto spec = io::load_scenario(scenario_file);
  if (window_override > 0) spec.window = window_override;
  if (ticks_override > 0) {
    spec.ticks = ticks_override;
    std::erase_if(spec.events, [&](const scenario::Event& e) {
      return e.tick >= spec.ticks;
    });
  }
  if (kill_at == 0) kill_at = (spec.window + spec.ticks) / 2;
  if (kill_at >= spec.ticks) {
    std::cerr << "kill_at must be < ticks (" << spec.ticks << ")\n";
    return 2;
  }
  core::MonitorOptions options;
  options.lia.variance.threads = threads;

  // Uninterrupted reference run, recording every diagnosing tick.
  std::vector<std::optional<linalg::Vector>> reference;
  scenario::ScenarioRunner ref_runner(spec, options);
  ref_runner.run([&](std::size_t, std::size_t,
                     const std::optional<core::LossInference>& inf) {
    reference.push_back(inf ? std::optional<linalg::Vector>(inf->loss)
                            : std::nullopt);
  });
  const auto* ref_eqs = ref_runner.monitor().streaming_equations();
  const std::size_t ref_refactorizations =
      ref_eqs ? ref_eqs->refactorizations() : 0;

  // Interrupted run: advance to the kill tick, checkpoint, and "die".
  {
    scenario::ScenarioRunner runner(spec, options);
    while (runner.ticks_run() < kill_at) runner.step();
    runner.save_checkpoint(ckpt_file);
  }
  std::cout << "checkpointed '" << spec.name << "' at tick " << kill_at
            << " -> " << ckpt_file << '\n';

  if (fault != "none") {
    corrupt_checkpoint(ckpt_file, fault);
    try {
      auto runner = scenario::restore_runner(ckpt_file, options);
      (void)runner;
      std::cerr << "FAIL: " << fault
                << "-corrupted checkpoint was accepted\n";
      return 1;
    } catch (const io::CheckpointError& e) {
      std::cout << "corrupt checkpoint (" << fault
                << ") cleanly rejected: " << e.what() << '\n';
      return 0;
    }
  }

  // Restore into a fresh process image and run the remaining ticks.
  auto resumed = scenario::restore_runner(ckpt_file, options);
  if (resumed.ticks_run() != kill_at) {
    std::cerr << "FAIL: restored tick " << resumed.ticks_run() << " != "
              << kill_at << '\n';
    return 1;
  }
  double max_diff = 0.0;
  bool shape_ok = true;
  std::size_t tick = kill_at;
  resumed.run([&](std::size_t, std::size_t,
                  const std::optional<core::LossInference>& inf) {
    const auto& ref = reference[tick++];
    if (ref.has_value() != inf.has_value() ||
        (ref && ref->size() != inf->loss.size())) {
      shape_ok = false;
      return;
    }
    if (!ref) return;
    for (std::size_t k = 0; k < ref->size(); ++k) {
      max_diff = std::max(max_diff, std::abs((*ref)[k] - inf->loss[k]));
    }
  });
  const auto* eqs = resumed.monitor().streaming_equations();
  const std::size_t refactorizations = eqs ? eqs->refactorizations() : 0;
  std::cout << "resumed " << (spec.ticks - kill_at) << " ticks: max |diff| "
            << max_diff << " vs uninterrupted run, " << refactorizations
            << " refactorizations (reference " << ref_refactorizations
            << ")\n";
  if (!shape_ok || max_diff != 0.0) {
    std::cerr << "FAIL: resumed run diverged from the reference\n";
    return 1;
  }
  if (refactorizations != ref_refactorizations) {
    std::cerr << "FAIL: restore cost a refactorization\n";
    return 1;
  }
  std::cout << "bit-identical resume, factor cache intact\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args(argc, argv);
    const auto mode = args.get_string("mode", "infer");
    if (mode == "generate") return generate(args);
    if (mode == "infer") return infer(args);
    if (mode == "monitor") return monitor(args);
    if (mode == "convert") return convert(args);
    if (mode == "scenario") return scenario_mode(args);
    if (mode == "checkpoint-drill") return checkpoint_drill(args);
    if (mode == "ingest-drill") return ingest_drill(args);
    std::cerr << "unknown mode: " << mode << "\n\n";
    print_usage(std::cerr);
    return 2;
  } catch (const std::invalid_argument& e) {
    // Unknown/misspelled key=value arguments (util::Args::finish) and
    // malformed inputs land here: usage, exit 2.
    std::cerr << "error: " << e.what() << "\n\n";
    print_usage(std::cerr);
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}

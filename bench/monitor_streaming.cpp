// Steady-state monitoring tick latency: the streaming engine (incremental
// sliding-window covariance + cached-factor normal-equation refresh)
// against the batch relearn path, on the same tree instance the kernel
// microbench records (np=646 at the defaults), plus a large-overlay
// scenario sizing the sparse sharing-pair store.
//
//   build/bench_monitor_streaming [nodes=1300] [branching=8] [m=200]
//                                 [ticks=60] [relearn_every=1] [p=0.05]
//                                 [overlay_hosts=72] [overlay_m=50]
//                                 [overlay_ticks=8] [ingest_snapshots=192]
//                                 [threads=0|1,2,8] [--json <path>]
//
// Both engines consume an identical snapshot sequence; every measured tick
// cross-checks the two inferences (max |loss diff| is part of the report).
// The headline figure is the keep-all-policy speedup (G fixed, factorized
// once), where the engines agree exactly on the recorded instance.  Under
// drop-negative the cached factor follows each pair sign flip by a rank-1
// up/downdate (linalg::UpdatableCholesky) and a full refactorization runs
// only on the fallback conditions — the report carries the
// refactorization / rank-1 / fallback counters.  Residual caveat: a pair
// whose sample covariance sits within the accumulator's drift of zero can
// flip its drop decision against the batch engine (the drop policy is
// discontinuous at cov = 0 — same caveat as blocked-vs-reference in
// core/variance_estimator.cpp), which can show up as a nonzero
// drop_max_loss_diff on some instances.
//
// The overlay section (overlay_hosts >= 2; 0 skips) builds a
// PlanetLab-style overlay of overlay_hosts end-hosts — 72 hosts give
// ~5100 paths — and records what streaming drop-negative costs at that
// scale: sharing-pair store construction seconds and bytes (the
// structure that replaced the O(np^2) pair scan) and the steady-state
// streaming tick.  The batch engine is deliberately not run there — its
// O(m np^2) relearn is exactly what the streaming engine exists to avoid.
//
// The ingest section records what the LTBT binary trace format buys over
// ASCII parsing on the same overlay: one phi campaign of ingest_snapshots
// rows is written both as a text snapshot file and as a binary trace, then
// each file is ingested to raw phi rows in memory (open + parse/map +
// touch every value).  That isolates the parse/I-O stage the binary
// format replaces — the log transform and accumulator folds downstream
// are identical in both pipelines.  The report carries snapshots/s for
// both paths, the speedup, and the share of a steady monitoring tick that
// ingestion would occupy on each.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "common.hpp"
#include "core/monitor.hpp"
#include "core/sharing_pairs.hpp"
#include "io/binary_trace.hpp"
#include "io/checkpoint.hpp"
#include "io/pipeline.hpp"
#include "io/trace_io.hpp"
#include "obs/registry.hpp"

namespace {

using namespace losstomo;

struct EngineComparison {
  double batch_mean = 0.0;
  double streaming_mean = 0.0;
  double max_loss_diff = 0.0;
  std::string batch_method;
  std::string streaming_method;
  // Factor-cache diagnostics of the streaming engine (drop-negative).
  std::size_t refactorizations = 0;
  std::size_t rank1_updates = 0;
  std::size_t downdate_fallbacks = 0;
};

EngineComparison compare_engines(const linalg::SparseBinaryMatrix& r,
                                 const std::vector<linalg::Vector>& snapshots,
                                 std::size_t m, std::size_t relearn_every,
                                 core::NegativeCovariancePolicy policy) {
  core::MonitorOptions batch_options;
  batch_options.window = m;
  batch_options.relearn_every = relearn_every;
  batch_options.engine = core::MonitorEngine::kBatch;
  batch_options.lia.variance.negatives = policy;
  core::MonitorOptions streaming_options = batch_options;
  streaming_options.engine = core::MonitorEngine::kStreaming;

  core::LiaMonitor batch(r, batch_options);
  core::LiaMonitor streaming(r, streaming_options);

  EngineComparison out;
  stats::RunningStat batch_tick, streaming_tick;
  for (std::size_t t = 0; t < snapshots.size(); ++t) {
    const auto& y = snapshots[t];
    // Warm-up: fill the window and run the first (factorizing) relearn
    // untimed; every later tick is steady state.
    const bool measured = t > m + 1;
    util::Timer batch_timer;
    const auto from_batch = batch.observe(y);
    const double batch_seconds = batch_timer.seconds();
    util::Timer streaming_timer;
    const auto from_streaming = streaming.observe(y);
    const double streaming_seconds = streaming_timer.seconds();
    if (!measured || !from_batch || !from_streaming) continue;
    batch_tick.add(batch_seconds);
    streaming_tick.add(streaming_seconds);
    out.max_loss_diff =
        std::max(out.max_loss_diff,
                 linalg::max_abs_diff(from_batch->loss, from_streaming->loss));
  }
  out.batch_mean = batch_tick.mean();
  out.streaming_mean = streaming_tick.mean();
  out.batch_method = batch.variances().method;
  out.streaming_method = streaming.variances().method;
  if (const auto* eqs = streaming.streaming_equations()) {
    out.refactorizations = eqs->refactorizations();
    out.rank1_updates = eqs->rank1_updates();
    out.downdate_fallbacks = eqs->downdate_fallbacks();
  }
  return out;
}

// Consumes every value pushed down a pipeline (folding into a checksum so
// the ingest passes cannot be dead-code-eliminated and both paths touch
// every double).
class ChecksumSink final : public io::Element {
 public:
  void do_push(const io::SnapshotBatch& batch) override {
    rows_ += batch.rows;
    for (const double v : batch.values) sum_ += v;
  }
  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t rows_ = 0;
  double sum_ = 0.0;
};

// Streaming drop-negative at overlay scale: sharing-pair store size and
// build time, then the steady-state monitor tick.  No batch reference —
// the O(m np^2) relearn at 5k+ paths is the cost this path exists to
// avoid.
struct OverlayFigures {
  std::size_t np = 0, nc = 0;
  std::size_t pairs = 0, shared_entries = 0, store_bytes = 0;
  double store_build_seconds = 0.0;
  double streaming_tick_seconds = 0.0;
  // The same steady tick with an obs::Registry (+ flight recorder)
  // attached — the telemetry overhead budget is <= 2% of the plain tick.
  double telemetry_tick_seconds = 0.0;
  std::size_t refactorizations = 0;
  std::size_t rank1_updates = 0;
  // The same steady tick on the kSharingPairs accumulator (sharing-pair
  // entries only, O(np + pairs) per tick instead of O(np^2)).
  double pairs_tick_seconds = 0.0;
  // Failover cost at this scale: one full monitor checkpoint (store +
  // accumulator + cached factor) serialized and restored.
  std::size_t checkpoint_bytes = 0;
  double checkpoint_save_seconds = 0.0;
  double checkpoint_restore_seconds = 0.0;
  // Ingestion: the same phi campaign through ASCII parsing vs the binary
  // trace pipeline, measured to raw phi rows in memory (parse/I-O only).
  // `verified` = first open (full payload-CRC pass); `binary` = steady
  // re-open of an already-verified trace (PayloadCheck::kTrust).
  std::size_t ingest_snapshots = 0;
  std::size_t ingest_text_bytes = 0;
  std::size_t ingest_binary_bytes = 0;
  double ingest_ascii_seconds = 0.0;
  double ingest_verified_seconds = 0.0;
  double ingest_binary_seconds = 0.0;
  bool ingest_mmap = false;
  bool ingest_sums_match = false;
};

OverlayFigures run_overlay(std::size_t hosts, std::size_t m, std::size_t ticks,
                           std::size_t ingest_snapshots, std::uint64_t seed) {
  stats::Rng rng(seed);
  auto topo = topology::make_planetlab_like(
      {.hosts = hosts, .as_count = 10, .routers_per_as = 8}, rng);
  const auto routed = topology::route_paths(topo.graph, topo.hosts, topo.hosts);
  const net::ReducedRoutingMatrix rrm(topo.graph, routed.paths);
  const auto& r = rrm.matrix();

  OverlayFigures out;
  out.np = r.rows();
  out.nc = r.cols();
  util::Timer build_timer;
  {
    const auto store = core::SharingPairStore::build(r);
    out.store_build_seconds = build_timer.seconds();
    out.pairs = store.pair_count();
    out.shared_entries = store.shared_link_entries();
    out.store_bytes = store.bytes();
  }

  core::MonitorOptions options;
  options.window = m;
  options.engine = core::MonitorEngine::kStreaming;
  options.lia.variance.negatives = core::NegativeCovariancePolicy::kDrop;
  core::LiaMonitor monitor(r, options);
  sim::ScenarioConfig config;
  config.p = 0.04;
  sim::SnapshotSimulator simulator(topo.graph, rrm, config, seed * 7);
  stats::RunningStat tick_stat;
  for (std::size_t t = 0; t < m + 2 + ticks; ++t) {
    const auto y = simulator.next().path_log_trans;
    util::Timer tick_timer;
    monitor.observe(y);
    if (t > m + 1) tick_stat.add(tick_timer.seconds());
  }
  out.streaming_tick_seconds = tick_stat.mean();
  const auto* eqs = monitor.streaming_equations();
  out.refactorizations = eqs->refactorizations();
  out.rank1_updates = eqs->rank1_updates();

  // Telemetry overhead probe: the identical feed (fresh simulator, same
  // seed) and monitor configuration, with a registry and flight recorder
  // attached — per-tick publishing, phase spans, and recorder writes all
  // on.  Compiled with LOSSTOMO_NO_TELEMETRY this measures the stubs.
  {
    obs::Registry registry;
    registry.enable_flight_recorder(256);
    auto instrumented_options = options;
    instrumented_options.telemetry = &registry;
    core::LiaMonitor instrumented(r, instrumented_options);
    sim::SnapshotSimulator feed(topo.graph, rrm, config, seed * 7);
    stats::RunningStat stat;
    for (std::size_t t = 0; t < m + 2 + ticks; ++t) {
      const auto y = feed.next().path_log_trans;
      util::Timer tick_timer;
      instrumented.observe(y);
      if (t > m + 1) stat.add(tick_timer.seconds());
    }
    out.telemetry_tick_seconds = stat.mean();
  }

  util::Timer save_timer;
  io::CheckpointWriter writer;
  monitor.save_state(writer);
  auto image = writer.finish();
  out.checkpoint_save_seconds = save_timer.seconds();
  out.checkpoint_bytes = image.size();

  core::LiaMonitor restored(r, options);
  util::Timer restore_timer;
  auto reader = io::CheckpointReader::from_bytes(std::move(image));
  restored.restore_state(reader);
  out.checkpoint_restore_seconds = restore_timer.seconds();

  // Pair-accumulator tick: the identical feed (fresh simulator, same
  // seed) through the kSharingPairs accumulator.
  {
    auto pair_options = options;
    pair_options.accumulator = core::CovarianceAccumulator::kSharingPairs;
    core::LiaMonitor pairs(r, pair_options);
    sim::SnapshotSimulator feed(topo.graph, rrm, config, seed * 7);
    stats::RunningStat stat;
    for (std::size_t t = 0; t < m + 2 + ticks; ++t) {
      const auto y = feed.next().path_log_trans;
      util::Timer timer;
      pairs.observe(y);
      if (t > m + 1) stat.add(timer.seconds());
    }
    out.pairs_tick_seconds = stat.mean();
  }

  // Ingestion shoot-out on the same overlay: one phi campaign, written
  // once as text and once as an LTBT binary trace, then each file is
  // ingested to raw phi rows in memory.  This isolates the parse/I-O
  // stage the binary format replaces — the log transform and the
  // accumulator folds downstream are identical for both paths, so they
  // are excluded from the clock.  Text stores full-precision doubles, so
  // both passes deliver bit-identical values in the same order and the
  // checksums must match exactly.
  if (ingest_snapshots > 0) {
    namespace fs = std::filesystem;
    const auto dir = fs::temp_directory_path();
    const auto tag = "losstomo_ingest_" + std::to_string(seed);
    const auto text_file = (dir / (tag + ".snapshots")).string();
    const auto bin_file = (dir / (tag + ".bin")).string();

    std::vector<std::vector<double>> campaign;
    campaign.reserve(ingest_snapshots);
    for (std::size_t t = 0; t < ingest_snapshots; ++t) {
      const auto& phi = simulator.next().path_trans;
      campaign.emplace_back(phi.begin(), phi.end());
    }
    io::save_snapshots(text_file, campaign);
    {
      io::BinaryTraceWriter writer(bin_file, out.np,
                                   /*log_transformed=*/false);
      for (const auto& row : campaign) writer.append(row);
      writer.finish();
    }
    out.ingest_snapshots = ingest_snapshots;
    out.ingest_text_bytes = fs::file_size(text_file);
    out.ingest_binary_bytes = fs::file_size(bin_file);

    double ascii_sum = 0.0;
    {
      util::Timer ascii_timer;
      std::ifstream is(text_file);
      io::SnapshotStream stream(is, /*log_transform=*/false);
      std::vector<double> y;
      while (stream.next(y)) {
        for (const double v : y) ascii_sum += v;
      }
      out.ingest_ascii_seconds = ascii_timer.seconds();
    }
    double binary_sum = 0.0;
    {
      // First contact: full validation including the payload-CRC pass.
      util::Timer verified_timer;
      auto trace = io::BinaryTraceReader::open(bin_file);
      io::BinaryTraceSource source(trace);
      ChecksumSink sink;
      source.drain(sink);
      out.ingest_verified_seconds = verified_timer.seconds();
      out.ingest_mmap = trace.mapped();
      binary_sum = sink.sum();
    }
    double trusted_sum = 0.0;
    {
      // Steady path: re-open of the trace this process just verified
      // (header checks still run; the payload pass is skipped).
      util::Timer binary_timer;
      auto trace = io::BinaryTraceReader::open(
          bin_file, io::BinaryTraceReader::PayloadCheck::kTrust);
      io::BinaryTraceSource source(trace);
      ChecksumSink sink;
      source.drain(sink);
      out.ingest_binary_seconds = binary_timer.seconds();
      trusted_sum = sink.sum();
    }
    out.ingest_sums_match = ascii_sum == binary_sum &&
                            trusted_sum == binary_sum;

    fs::remove(text_file);
    fs::remove(bin_file);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto nodes = args.get_size("nodes", 1300);
  const auto branching = args.get_size("branching", 8);
  const auto m = args.get_size("m", 200);
  const auto ticks = args.get_size("ticks", 60);
  const auto relearn_every = args.get_size("relearn_every", 1);
  const double p = args.get_double("p", 0.05);
  const auto seed = args.get_size("seed", 41);
  const auto overlay_hosts = args.get_size("overlay_hosts", 72);
  const auto overlay_m = args.get_size("overlay_m", 50);
  const auto overlay_ticks = args.get_size("overlay_ticks", 8);
  const auto ingest_snapshots = args.get_size("ingest_snapshots", 192);
  const auto json_path = args.get_string("json", "");
  // `threads=1,2,8` re-records the whole bench per worker count in one run
  // (keys suffixed _t<N>); the default keeps the historical key names.
  const bench::ThreadSweep sweep(args);
  args.finish();

  const auto inst = bench::make_tree_instance(nodes, branching, seed);
  const auto& rrm = inst.matrix();
  const auto& r = rrm.matrix();
  std::cout << "monitor_streaming: " << inst.name << " np=" << r.rows()
            << " links=" << r.cols() << " m=" << m << " ticks=" << ticks
            << " relearn_every=" << relearn_every
            << " threads=" << util::default_threads() << "\n\n";

  // One shared snapshot sequence, so both engines and both policies see
  // identical data.
  sim::ScenarioConfig config;
  config.p = p;
  sim::SnapshotSimulator simulator(inst.graph, rrm, config, seed * 7);
  std::vector<linalg::Vector> snapshots;
  snapshots.reserve(m + 2 + ticks);
  for (std::size_t t = 0; t < m + 2 + ticks; ++t) {
    snapshots.push_back(simulator.next().path_log_trans);
  }

  bench::JsonReport report;
  report.set("bench", std::string("monitor_streaming"));
  report.set("np", r.rows());
  report.set("nc", r.cols());
  report.set("m", m);
  report.set("ticks", ticks);
  report.set("relearn_every", relearn_every);

  sweep.run([&](std::size_t threads, const std::string& suffix) {
    const auto keep =
        compare_engines(r, snapshots, m, relearn_every,
                        core::NegativeCovariancePolicy::kKeep);
    const auto drop =
        compare_engines(r, snapshots, m, relearn_every,
                        core::NegativeCovariancePolicy::kDrop);

    util::Table table({"policy", "batch tick s", "streaming tick s", "speedup",
                       "max |loss diff|"});
    const auto add = [&](const std::string& name, const EngineComparison& c) {
      table.add_row({name, util::Table::num(c.batch_mean, 5),
                     util::Table::num(c.streaming_mean, 5),
                     util::Table::num(c.batch_mean / c.streaming_mean, 2),
                     util::Table::num(c.max_loss_diff, 14)});
    };
    add("keep-all", keep);
    add("drop-negative", drop);
    std::cout << "threads="
              << (threads == 0 ? util::default_threads() : threads) << "\n";
    table.print(std::cout);
    std::cout << "\nkeep-all: G depends only on R, so the streaming engine "
                 "factorizes the normal equations once and a steady tick is "
                 "two rank-1 covariance updates + an O(nc^2) solve.\n";
    std::cout << "drop-negative factor cache: " << drop.refactorizations
              << " refactorizations, " << drop.rank1_updates
              << " rank-1 up/downdates, " << drop.downdate_fallbacks
              << " downdate fallbacks over " << ticks << " ticks.\n";

    OverlayFigures overlay;
    if (overlay_hosts >= 2) {
      overlay = run_overlay(overlay_hosts, overlay_m, overlay_ticks,
                            ingest_snapshots, seed);
      std::cout << "\nlarge overlay (" << overlay_hosts
                << " hosts): np=" << overlay.np << " nc=" << overlay.nc
                << "\n  sharing-pair store: " << overlay.pairs << " pairs, "
                << overlay.shared_entries << " shared-link entries, "
                << overlay.store_bytes << " bytes, built in "
                << util::Table::num(overlay.store_build_seconds, 4) << " s"
                << "\n  streaming drop-negative tick: "
                << util::Table::num(overlay.streaming_tick_seconds, 5) << " s ("
                << overlay.refactorizations << " refactorizations, "
                << overlay.rank1_updates << " rank-1 updates)\n";
      const double overhead_frac =
          overlay.telemetry_tick_seconds / overlay.streaming_tick_seconds -
          1.0;
      std::cout << "  telemetry overhead: instrumented tick "
                << util::Table::num(overlay.telemetry_tick_seconds, 5)
                << " s (" << util::Table::num(100.0 * overhead_frac, 2)
                << "% vs plain; budget 2%)\n";
      std::cout << "  checkpoint: " << overlay.checkpoint_bytes
                << " bytes, saved in "
                << util::Table::num(overlay.checkpoint_save_seconds, 4)
                << " s, restored (factor included, no refactorization) in "
                << util::Table::num(overlay.checkpoint_restore_seconds, 4)
                << " s\n";
      std::cout << "  pairs accumulator tick: "
                << util::Table::num(overlay.pairs_tick_seconds, 5) << " s\n";
      if (overlay.ingest_snapshots > 0) {
        const double n = static_cast<double>(overlay.ingest_snapshots);
        const double ascii_per_s = n / overlay.ingest_ascii_seconds;
        const double verified_per_s = n / overlay.ingest_verified_seconds;
        const double binary_per_s = n / overlay.ingest_binary_seconds;
        const double ascii_snap = overlay.ingest_ascii_seconds / n;
        const double binary_snap = overlay.ingest_binary_seconds / n;
        const double tick = overlay.streaming_tick_seconds;
        std::cout << "  ingest (" << overlay.ingest_snapshots
                  << " snapshots): ascii "
                  << util::Table::num(ascii_per_s, 1) << " snapshots/s ("
                  << overlay.ingest_text_bytes << " bytes), binary "
                  << util::Table::num(binary_per_s, 1) << " snapshots/s ("
                  << overlay.ingest_binary_bytes << " bytes, "
                  << (overlay.ingest_mmap ? "mmap" : "buffered")
                  << ", first open w/ payload CRC "
                  << util::Table::num(verified_per_s, 1)
                  << ") — " << util::Table::num(binary_per_s / ascii_per_s, 1)
                  << "x; share of a steady tick: ascii "
                  << util::Table::num(
                         100.0 * ascii_snap / (ascii_snap + tick), 1)
                  << "%, binary "
                  << util::Table::num(
                         100.0 * binary_snap / (binary_snap + tick), 1)
                  << "%"
                  << (overlay.ingest_sums_match ? "" : " [CHECKSUM MISMATCH]")
                  << "\n";
      }
    }

    report.set("threads" + suffix,
               threads == 0 ? util::default_threads() : threads);
    // Headline = keep-all policy (the scalable monitoring configuration).
    report.set("batch_tick_seconds" + suffix, keep.batch_mean);
    report.set("streaming_tick_seconds" + suffix, keep.streaming_mean);
    report.set("speedup" + suffix, keep.batch_mean / keep.streaming_mean);
    report.set("max_loss_diff" + suffix, keep.max_loss_diff);
    report.set("batch_method" + suffix, keep.batch_method);
    report.set("streaming_method" + suffix, keep.streaming_method);
    report.set("drop_batch_tick_seconds" + suffix, drop.batch_mean);
    report.set("drop_streaming_tick_seconds" + suffix, drop.streaming_mean);
    report.set("drop_speedup" + suffix, drop.batch_mean / drop.streaming_mean);
    report.set("drop_max_loss_diff" + suffix, drop.max_loss_diff);
    report.set("drop_refactorizations" + suffix, drop.refactorizations);
    report.set("drop_rank1_updates" + suffix, drop.rank1_updates);
    report.set("drop_downdate_fallbacks" + suffix, drop.downdate_fallbacks);
    if (overlay_hosts >= 2) {
      report.set("overlay_hosts" + suffix, overlay_hosts);
      report.set("overlay_np" + suffix, overlay.np);
      report.set("overlay_nc" + suffix, overlay.nc);
      report.set("overlay_m" + suffix, overlay_m);
      report.set("overlay_pairs" + suffix, overlay.pairs);
      report.set("overlay_shared_link_entries" + suffix,
                 overlay.shared_entries);
      report.set("overlay_store_bytes" + suffix, overlay.store_bytes);
      report.set("overlay_store_build_seconds" + suffix,
                 overlay.store_build_seconds);
      report.set("overlay_streaming_tick_seconds" + suffix,
                 overlay.streaming_tick_seconds);
      report.set("overlay_refactorizations" + suffix,
                 overlay.refactorizations);
      report.set("telemetry_overhead_tick_off_seconds" + suffix,
                 overlay.streaming_tick_seconds);
      report.set("telemetry_overhead_tick_on_seconds" + suffix,
                 overlay.telemetry_tick_seconds);
      report.set("telemetry_overhead_frac" + suffix,
                 overlay.telemetry_tick_seconds /
                         overlay.streaming_tick_seconds -
                     1.0);
      report.set("checkpoint_bytes" + suffix, overlay.checkpoint_bytes);
      report.set("checkpoint_save_s" + suffix,
                 overlay.checkpoint_save_seconds);
      report.set("checkpoint_restore_s" + suffix,
                 overlay.checkpoint_restore_seconds);
      report.set("overlay_pairs_tick_seconds" + suffix,
                 overlay.pairs_tick_seconds);
      if (overlay.ingest_snapshots > 0) {
        const double n = static_cast<double>(overlay.ingest_snapshots);
        const double ascii_snap = overlay.ingest_ascii_seconds / n;
        const double binary_snap = overlay.ingest_binary_seconds / n;
        const double tick = overlay.streaming_tick_seconds;
        report.set("ingest_snapshots" + suffix, overlay.ingest_snapshots);
        report.set("ingest_ascii_snapshots_per_s" + suffix,
                   n / overlay.ingest_ascii_seconds);
        // Headline: binary-trace ingestion throughput (validated trace;
        // the verified key carries the first-open cost incl. payload CRC).
        report.set("ingest_snapshots_per_s" + suffix,
                   n / overlay.ingest_binary_seconds);
        report.set("ingest_verified_snapshots_per_s" + suffix,
                   n / overlay.ingest_verified_seconds);
        report.set("ingest_speedup" + suffix,
                   overlay.ingest_ascii_seconds /
                       overlay.ingest_binary_seconds);
        report.set("ingest_ascii_share_of_tick" + suffix,
                   ascii_snap / (ascii_snap + tick));
        report.set("ingest_share_of_tick" + suffix,
                   binary_snap / (binary_snap + tick));
        report.set("ingest_text_bytes" + suffix, overlay.ingest_text_bytes);
        report.set("ingest_binary_bytes" + suffix,
                   overlay.ingest_binary_bytes);
        report.set("ingest_mmap" + suffix,
                   static_cast<std::size_t>(overlay.ingest_mmap ? 1 : 0));
      }
    }
  });
  report.write(json_path);
  return 0;
}

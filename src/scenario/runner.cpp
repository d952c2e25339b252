#include "scenario/runner.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "io/checkpoint.hpp"
#include "io/checkpoint_tags.hpp"
#include "io/scenario_io.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "stats/rng.hpp"
#include "topology/generators.hpp"
#include "topology/overlay.hpp"
#include "topology/routing.hpp"
#include "util/timer.hpp"

namespace losstomo::scenario {

namespace {

// Deterministic alternate route for a measured path: shortest path (BFS,
// out-edge order ties) from source to destination that avoids the path's
// first edge.  Returns nullopt when the topology offers none (trees).
std::optional<net::Path> alternate_route(const net::Graph& g,
                                         const net::Path& path) {
  if (path.edges.empty()) return std::nullopt;
  const net::EdgeId avoid = path.edges.front();
  constexpr net::EdgeId kNoEdge = 0xffffffffu;
  std::vector<net::EdgeId> via(g.node_count(), kNoEdge);
  std::vector<std::uint8_t> seen(g.node_count(), 0);
  std::deque<net::NodeId> queue{path.source};
  seen[path.source] = 1;
  while (!queue.empty()) {
    const net::NodeId v = queue.front();
    queue.pop_front();
    if (v == path.destination) break;
    for (const auto e : g.out_edges(v)) {
      if (e == avoid) continue;
      const net::NodeId to = g.edge(e).to;
      if (seen[to]) continue;
      seen[to] = 1;
      via[to] = e;
      queue.push_back(to);
    }
  }
  if (!seen[path.destination] || path.destination == path.source) {
    return std::nullopt;
  }
  net::Path alt;
  alt.source = path.source;
  alt.destination = path.destination;
  for (net::NodeId v = path.destination; v != path.source;) {
    const net::EdgeId e = via[v];
    alt.edges.push_back(e);
    v = g.edge(e).from;
  }
  std::reverse(alt.edges.begin(), alt.edges.end());
  return alt;
}

struct GeneratedBase {
  net::Graph graph;
  std::vector<net::Path> paths;
};

GeneratedBase generate_base(const TopologySpec& topology) {
  GeneratedBase out;
  stats::Rng rng(topology.seed);
  switch (topology.kind) {
    case TopologySpec::Kind::kTree: {
      auto tree = topology::make_random_tree(
          {.nodes = topology.nodes, .max_branching = topology.branching}, rng);
      out.paths = topology::tree_paths(tree);
      out.graph = std::move(tree.graph);
      return out;
    }
    case TopologySpec::Kind::kMesh: {
      auto topo = topology::make_waxman(
          {.nodes = topology.nodes, .links_per_node = 2, .alpha = 0.3,
           .beta = 0.4},
          rng);
      const auto hosts =
          topology::pick_low_degree_hosts(topo.graph, topology.hosts);
      auto routed = topology::route_paths(topo.graph, hosts, hosts);
      out.paths = std::move(routed.paths);
      out.graph = std::move(topo.graph);
      return out;
    }
    case TopologySpec::Kind::kOverlay: {
      auto topo = topology::make_planetlab_like(
          {.hosts = topology.hosts, .as_count = topology.as_count,
           .routers_per_as = topology.routers_per_as},
          rng);
      auto routed = topology::route_paths(topo.graph, topo.hosts, topo.hosts);
      out.paths = std::move(routed.paths);
      out.graph = std::move(topo.graph);
      return out;
    }
    case TopologySpec::Kind::kBranchingTree: {
      auto tree = topology::make_branching_tree(
          {.depth = topology.depth, .branching = topology.branching,
           .extra_leaves = topology.extra_leaves},
          rng);
      out.paths = topology::tree_paths(tree);
      out.graph = std::move(tree.graph);
      return out;
    }
  }
  throw std::invalid_argument("unknown topology kind");
}

}  // namespace

// Pre-resolved metric handles: every name is interned once at attach time,
// so the per-tick publishing path is plain pointer stores.  The counters are
// *published* from the runner's serialized ledgers (tick_, events_applied_,
// event_counts_), never live-incremented — bit-identity across thread
// counts and checkpoint restore follows from the ledgers', for free.
struct ScenarioRunner::Telemetry {
  obs::Registry* registry;
  obs::Counter* ticks;
  obs::Counter* events;
  obs::Counter* diagnosed;
  std::array<obs::Counter*, kEventTypeCount> by_type{};
  // Per-event-type apply() cost (wall clock — nondeterministic): the churn
  // cost attribution the scenario reports break down by.
  std::array<obs::Histogram*, kEventTypeCount> seconds_by_type{};
  std::size_t tick_phase;
  std::size_t ingest_phase;

  explicit Telemetry(obs::Registry& r)
      : registry(&r),
        ticks(&r.counter("scenario.ticks")),
        events(&r.counter("scenario.events")),
        diagnosed(&r.counter("scenario.diagnosed")),
        tick_phase(r.phase("tick")),
        ingest_phase(r.phase("ingest")) {
    for (std::size_t t = 0; t < kEventTypeCount; ++t) {
      const std::string name = event_type_name(static_cast<EventType>(t));
      by_type[t] = &r.counter("scenario.events." + name);
      seconds_by_type[t] = &r.histogram("scenario.event." + name + ".seconds");
    }
  }
};

ScenarioRunner::ScenarioRunner(ScenarioRunner&&) noexcept = default;
ScenarioRunner& ScenarioRunner::operator=(ScenarioRunner&&) noexcept = default;
ScenarioRunner::~ScenarioRunner() = default;

ScenarioRunner::ScenarioRunner(ScenarioSpec spec,
                               core::MonitorOptions monitor_options)
    : spec_(std::move(spec)), timeline_(spec_.events) {
  spec_.validate();
  event_counts_.assign(kEventTypeCount, 0);
  auto base = generate_base(spec_.topology);
  graph_ = std::make_unique<const net::Graph>(std::move(base.graph));
  base_paths_ = base.paths.size();
  if (base_paths_ < 2) {
    throw std::invalid_argument("scenario topology yields < 2 paths");
  }
  if (spec_.reserve_paths >= base_paths_) {
    throw std::invalid_argument("reserve_paths must leave base paths");
  }
  const std::size_t initial = base_paths_ - spec_.reserve_paths;
  if (spec_.initial_paths > initial) {
    throw std::invalid_argument("initial_paths exceeds non-reserved paths");
  }
  std::vector<net::Path> pool(base.paths.begin() + initial, base.paths.end());
  universe_paths_.assign(base.paths.begin(), base.paths.begin() + initial);

  // Combined reserve consumption up front: reroutes and both grow kinds
  // all pop the pending-addition queue at apply time, and the grow kinds
  // additionally pop the reserve pool here — validating the totals against
  // the whole timeline before laying anything out means apply() can never
  // run the queue dry or hand out a reserve path that does not exist.
  std::size_t grow_total = 0;
  for (const Event& e : timeline_.events()) {
    if (e.type == EventType::kGrow || e.type == EventType::kGrowLinks) {
      grow_total += e.count;
    }
  }
  if (grow_total > pool.size()) {
    throw std::invalid_argument(
        "grow/grow_links events consume " + std::to_string(grow_total) +
        " reserve paths combined, but reserve_paths is " +
        std::to_string(pool.size()));
  }

  // Lay out every row the monitor will ever learn, in the order it will
  // learn them, so universe and monitor row indices coincide.
  std::size_t pool_next = 0;
  std::set<std::size_t> rerouted;
  std::vector<std::uint8_t> row_discovers_links(initial, 0);
  for (const Event& e : timeline_.events()) {
    switch (e.type) {
      case EventType::kPathJoin:
      case EventType::kPathLeave:
        if (e.path >= initial) {
          throw std::invalid_argument(
              "join/leave path index out of the initial path range");
        }
        break;
      case EventType::kRouteChange: {
        if (e.path >= initial) {
          throw std::invalid_argument("reroute path index out of range");
        }
        // The alternate is computed from the path's ORIGINAL route; a
        // second reroute of the same path would silently duplicate that
        // alternate (the first one can never be retired by later events).
        if (rerouted.count(e.path) != 0) {
          throw std::invalid_argument(
              "path " + std::to_string(e.path) +
              " is rerouted twice; one route change per path is supported");
        }
        rerouted.insert(e.path);
        auto alt = alternate_route(*graph_, universe_paths_[e.path]);
        if (!alt) {
          throw std::invalid_argument(
              "no alternate route exists for rerouted path " +
              std::to_string(e.path));
        }
        pending_additions_.push_back(universe_paths_.size());
        universe_paths_.push_back(std::move(*alt));
        row_discovers_links.push_back(0);
        break;
      }
      case EventType::kGrow:
      case EventType::kGrowLinks:
        for (std::size_t k = 0; k < e.count; ++k) {
          pending_additions_.push_back(universe_paths_.size());
          universe_paths_.push_back(pool[pool_next++]);
          row_discovers_links.push_back(e.type == EventType::kGrowLinks);
        }
        break;
      case EventType::kLinkDown:
      case EventType::kLinkUp:
      case EventType::kRegimeShift:
      case EventType::kCheckpoint:
      case EventType::kRestore:
      case EventType::kHandoff:
        break;  // validated below / by the simulator / at apply time
    }
  }

  rrm_ = std::make_unique<net::ReducedRoutingMatrix>(*graph_, universe_paths_);
  for (const Event& e : timeline_.events()) {
    if ((e.type == EventType::kLinkDown || e.type == EventType::kLinkUp) &&
        e.link >= rrm_->link_count()) {
      throw std::invalid_argument("event link index out of range");
    }
  }

  // Monitor link basis.  Without kGrowLinks events: the whole universe
  // basis, identity-mapped (churn never changes the column space).  With
  // them (link-discovery mode): the links covered by any non-kGrowLinks
  // row first, in ascending universe order, then the fresh links in the
  // order their kGrowLinks rows append them — the exact order apply()
  // replays, resolved here once so the mapping is a pure function of the
  // spec.
  const auto& universe_matrix = rrm_->matrix();
  const std::size_t universe_links = rrm_->link_count();
  constexpr std::uint32_t kUnmapped = 0xffffffffu;
  link_to_monitor_.assign(universe_links, kUnmapped);
  monitor_to_universe_.clear();
  monitor_to_universe_.reserve(universe_links);
  const bool discover = timeline_.count(EventType::kGrowLinks) > 0;
  if (discover) {
    std::vector<std::uint8_t> known(universe_links, 0);
    for (std::size_t i = 0; i < universe_paths_.size(); ++i) {
      if (row_discovers_links[i]) continue;
      for (const auto link : universe_matrix.row(i)) known[link] = 1;
    }
    for (std::uint32_t k = 0; k < universe_links; ++k) {
      if (!known[k]) continue;
      link_to_monitor_[k] =
          static_cast<std::uint32_t>(monitor_to_universe_.size());
      monitor_to_universe_.push_back(k);
    }
  } else {
    for (std::uint32_t k = 0; k < universe_links; ++k) {
      link_to_monitor_[k] = k;
      monitor_to_universe_.push_back(k);
    }
  }
  const std::size_t initial_links = monitor_to_universe_.size();
  if (discover) {
    for (std::size_t i = 0; i < universe_paths_.size(); ++i) {
      if (!row_discovers_links[i]) continue;
      for (const auto link : universe_matrix.row(i)) {
        if (link_to_monitor_[link] != kUnmapped) continue;
        link_to_monitor_[link] =
            static_cast<std::uint32_t>(monitor_to_universe_.size());
        monitor_to_universe_.push_back(link);
      }
    }
  }

  // The monitor starts with the initial rows over the initially known link
  // basis; churn requires drop-negative, so an unresolved (kAuto) policy
  // resolves to drop here.  The resolved options
  // and simulator config are kept: checkpoint restore and handoff rebuild
  // the engines from them, exactly as constructed here.
  monitor_options.window = spec_.window;
  if (monitor_options.lia.variance.negatives ==
      core::NegativeCovariancePolicy::kAuto) {
    monitor_options.lia.variance.negatives =
        core::NegativeCovariancePolicy::kDrop;
  }
  monitor_options_ = monitor_options;
  initial_links_ = initial_links;
  monitor_ = make_initial_monitor();

  sim_config_.p = spec_.p;
  sim_config_.probes_per_snapshot = spec_.probes;
  if (spec_.min_good_loss > 0.0) {
    // min_good_loss is a FLOOR on the good-link loss range: it must never
    // lower a configured good_lo that already sits above it.
    sim_config_.loss_model.good_lo =
        std::max(sim_config_.loss_model.good_lo, spec_.min_good_loss);
    sim_config_.loss_model.good_hi =
        std::max(sim_config_.loss_model.good_hi, spec_.min_good_loss);
  }
  simulator_ = make_simulator();

  if (monitor_options_.telemetry != nullptr) {
    obs_ = std::make_unique<Telemetry>(*monitor_options_.telemetry);
    publish_telemetry();
  }
}

void ScenarioRunner::publish_telemetry() {
  if (!obs_) return;
  obs_->ticks->set(tick_);
  obs_->events->set(events_applied_);
  obs_->diagnosed->set(diagnosed_);
  for (std::size_t t = 0; t < kEventTypeCount; ++t) {
    obs_->by_type[t]->set(event_counts_[t]);
  }
}

std::unique_ptr<core::LiaMonitor> ScenarioRunner::make_initial_monitor()
    const {
  const std::size_t initial = base_paths_ - spec_.reserve_paths;
  const auto& universe_matrix = rrm_->matrix();
  std::vector<std::vector<std::uint32_t>> rows;
  rows.reserve(initial);
  for (std::size_t i = 0; i < initial; ++i) {
    const auto row = universe_matrix.row(i);
    std::vector<std::uint32_t> mapped(row.size());
    for (std::size_t idx = 0; idx < row.size(); ++idx) {
      mapped[idx] = link_to_monitor_[row[idx]];
    }
    rows.push_back(std::move(mapped));
  }
  auto monitor = std::make_unique<core::LiaMonitor>(
      linalg::SparseBinaryMatrix(initial_links_, std::move(rows)),
      monitor_options_);
  if (spec_.initial_paths > 0) {
    for (std::size_t i = spec_.initial_paths; i < initial; ++i) {
      monitor->set_path_active(i, false);
    }
  }
  return monitor;
}

std::unique_ptr<sim::SnapshotSimulator> ScenarioRunner::make_simulator()
    const {
  return std::make_unique<sim::SnapshotSimulator>(*graph_, *rrm_, sim_config_,
                                                  spec_.seed);
}

void ScenarioRunner::apply(const Event& event) {
  switch (event.type) {
    case EventType::kPathJoin:
      monitor_->set_path_active(event.path, true);
      break;
    case EventType::kPathLeave:
      monitor_->set_path_active(event.path, false);
      break;
    case EventType::kRouteChange:
    case EventType::kGrow:
    case EventType::kGrowLinks: {
      if (event.type == EventType::kRouteChange) {
        monitor_->set_path_active(event.path, false);
      }
      const std::size_t rows =
          event.type == EventType::kRouteChange ? std::size_t{1} : event.count;
      // One batched append per event: the whole burst costs one routing-
      // matrix append + one accumulator growth, not `rows` of each.
      const std::size_t first_row = monitor_->routing().rows();
      const std::size_t known_links = monitor_->routing().cols();
      std::vector<std::vector<std::uint32_t>> batch;
      batch.reserve(rows);
      std::size_t fresh_links = 0;
      for (std::size_t k = 0; k < rows; ++k) {
        if (pending_additions_.empty()) {
          throw std::logic_error(
              "pending-addition queue exhausted: universe layout and "
              "timeline diverged");
        }
        const std::size_t universe_row = pending_additions_.front();
        pending_additions_.pop_front();
        if (universe_row != first_row + k) {
          throw std::logic_error("universe/monitor row order diverged");
        }
        const auto row = rrm_->matrix().row(universe_row);
        std::vector<std::uint32_t> mapped(row.size());
        for (std::size_t idx = 0; idx < row.size(); ++idx) {
          const std::uint32_t m = link_to_monitor_[row[idx]];
          mapped[idx] = m;
          // Fresh links were assigned the next consecutive monitor
          // columns at construction; the batch carries them as new_links.
          if (m >= known_links) {
            fresh_links = std::max<std::size_t>(fresh_links,
                                                m - known_links + 1);
          }
        }
        batch.push_back(std::move(mapped));
      }
      const std::size_t added =
          monitor_->add_paths(std::move(batch), fresh_links);
      if (added != first_row) {
        throw std::logic_error("universe/monitor row order diverged");
      }
      break;
    }
    case EventType::kLinkDown:
      simulator_->force_link_loss(
          event.link, event.value > 0.0 ? event.value : spec_.down_loss);
      break;
    case EventType::kLinkUp:
      simulator_->clear_link_forcing(event.link);
      break;
    case EventType::kRegimeShift:
      simulator_->shift_regime(event.value);
      break;
    case EventType::kCheckpoint:
      // Count this event BEFORE saving, so the serialized state already
      // includes it and a restored run continues exactly past it.
      ++events_applied_;
      count_event(EventType::kCheckpoint);
      save_checkpoint(event.file);
      return;
    case EventType::kRestore:
      restore_checkpoint(event.file);
      // A scripted restore is a same-tick drill: restoring an earlier
      // tick's checkpoint mid-script would rewind the timeline and replay
      // this restore forever.
      if (tick_ != event.tick) {
        throw std::runtime_error(
            "restore event at tick " + std::to_string(event.tick) +
            " loaded a checkpoint of tick " + std::to_string(tick_) +
            "; scripted restores must target a same-tick checkpoint");
      }
      // events_applied_ came back from the checkpoint (which already counts
      // its own checkpoint event); count this restore on top of it.
      ++events_applied_;
      count_event(EventType::kRestore);
      return;
    case EventType::kHandoff: {
      // Warm failover: serialize to memory, tear the engines down, rebuild
      // them from scratch, and restore.  The run must continue as if
      // nothing happened — the parity drills pin that bit-identically.
      ++events_applied_;
      count_event(EventType::kHandoff);
      io::CheckpointWriter writer;
      save_state(writer);
      std::vector<std::uint8_t> image = writer.finish();
      monitor_.reset();
      simulator_.reset();
      io::CheckpointReader reader =
          io::CheckpointReader::from_bytes(std::move(image));
      restore_state(reader);
      return;
    }
  }
  ++events_applied_;
  count_event(event.type);
}

void ScenarioRunner::save_state(io::CheckpointWriter& writer) const {
  writer.begin_section(io::tags::kScenarioRunner);
  // The full spec rides along as text: restore validates identity against
  // it, and restore_runner() can rebuild a runner from the file alone.
  std::ostringstream spec_text;
  io::write_scenario(spec_text, spec_);
  writer.str(spec_text.str());
  writer.usize(tick_);
  writer.usize(events_applied_);
  writer.usize(diagnosed_);
  const std::vector<std::size_t> pending(pending_additions_.begin(),
                                         pending_additions_.end());
  writer.sizes(pending);
  writer.sizes(event_counts_);
  simulator_->save_state(writer);
  monitor_->save_state(writer);
  writer.end_section();
}

void ScenarioRunner::restore_state(io::CheckpointReader& reader) {
  reader.expect_section(io::tags::kScenarioRunner);
  const std::string spec_text = reader.str();
  std::ostringstream mine;
  io::write_scenario(mine, spec_);
  if (spec_text != mine.str()) {
    throw io::CheckpointError(
        io::CheckpointErrorKind::kMismatch,
        "checkpoint was taken under a different scenario spec");
  }
  const std::size_t tick = reader.usize();
  const std::size_t events_applied = reader.usize();
  const std::size_t diagnosed = reader.usize();
  if (tick > spec_.ticks) {
    throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                              "checkpoint tick beyond the scenario end");
  }
  const std::vector<std::size_t> pending = reader.sizes();
  for (const std::size_t row : pending) {
    if (row >= universe_paths_.size()) {
      throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                                "pending addition outside the universe");
    }
  }
  const std::vector<std::size_t> event_counts = reader.sizes();
  if (event_counts.size() != kEventTypeCount) {
    throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                              "per-type event ledger has the wrong arity");
  }
  // Fresh engines, exactly the constructor's, restored before anything of
  // this runner changes: a throw below leaves the runner fully usable.
  std::unique_ptr<sim::SnapshotSimulator> simulator = make_simulator();
  simulator->restore_state(reader);
  std::unique_ptr<core::LiaMonitor> monitor = make_initial_monitor();
  monitor->restore_state(reader);
  reader.end_section();

  tick_ = tick;
  events_applied_ = events_applied;
  diagnosed_ = diagnosed;
  event_counts_ = event_counts;
  pending_additions_.assign(pending.begin(), pending.end());
  // Wall-clock timings are not state: they restart at the restore.
  steady_tick_ = {};
  event_tick_ = {};
  max_tick_seconds_ = 0.0;
  simulator_ = std::move(simulator);
  monitor_ = std::move(monitor);
  publish_telemetry();
}

void ScenarioRunner::save_checkpoint(const std::string& file) const {
  io::CheckpointWriter writer;
  save_state(writer);
  writer.save(file);
}

void ScenarioRunner::restore_checkpoint(const std::string& file) {
  io::CheckpointReader reader = io::CheckpointReader::from_file(file);
  restore_state(reader);
}

ScenarioRunner restore_runner(const std::string& file,
                              core::MonitorOptions monitor_options) {
  io::CheckpointReader reader = io::CheckpointReader::from_file(file);
  reader.expect_section(io::tags::kScenarioRunner);
  std::istringstream spec_stream(reader.str());
  scenario::ScenarioSpec spec;
  try {
    spec = io::read_scenario(spec_stream);
  } catch (const std::exception& e) {
    throw io::CheckpointError(
        io::CheckpointErrorKind::kCorrupt,
        std::string("embedded scenario spec: ") + e.what());
  }
  ScenarioRunner runner(std::move(spec), monitor_options);
  runner.restore_checkpoint(file);
  return runner;
}

void ScenarioRunner::record_trace(const std::string& file) {
  if (replay_) throw std::logic_error("cannot record while replaying");
  recorder_ = std::make_unique<io::BinaryTraceWriter>(
      file, rrm_->path_count(), /*log_transformed=*/true);
}

void ScenarioRunner::replay_trace(const std::string& file) {
  if (recorder_) throw std::logic_error("cannot replay while recording");
  auto reader = io::BinaryTraceReader::open(file);
  if (reader.paths() != rrm_->path_count()) {
    throw io::CheckpointError(
        io::CheckpointErrorKind::kMismatch,
        "trace arity " + std::to_string(reader.paths()) +
            " != scenario universe " + std::to_string(rrm_->path_count()));
  }
  if (!reader.log_transformed()) {
    throw io::CheckpointError(
        io::CheckpointErrorKind::kMismatch,
        "scenario replay needs a log-transformed (recorded) trace");
  }
  if (reader.snapshots() < spec_.ticks) {
    throw io::CheckpointError(
        io::CheckpointErrorKind::kMismatch,
        "trace has " + std::to_string(reader.snapshots()) +
            " snapshots, scenario runs " + std::to_string(spec_.ticks) +
            " ticks");
  }
  replay_.emplace(std::move(reader));
}

std::optional<core::LossInference> ScenarioRunner::step() {
  if (tick_ >= spec_.ticks) throw std::logic_error("scenario exhausted");
  util::Timer timer;
  // Root phase span of the tick; the monitor's accumulate/solve spans and
  // the ingest span below nest under it (exclusive time — a parent's clock
  // pauses while a child runs).
  obs::Span tick_span(obs_ ? obs_->registry : nullptr,
                      obs_ ? obs_->tick_phase : 0);
  const auto due = timeline_.at(tick_);
  for (const Event& e : due) {
    if (obs_ != nullptr) {
      util::Timer event_timer;
      apply(e);
      obs_->seconds_by_type[static_cast<std::size_t>(e.type)]->observe(
          event_timer.seconds());
    } else {
      apply(e);
    }
  }
  const std::size_t known = monitor_->routing().rows();
  {
    obs::Span ingest_span(obs_ ? obs_->registry : nullptr,
                          obs_ ? obs_->ingest_phase : 0);
    if (replay_) {
      // Replay: the recorded universe-width row's known prefix IS the feed
      // of the recording run — the simulator is bypassed entirely (events
      // touching it are harmless; its output is never read), and there is
      // no ground truth to expose in last_snapshot_.
      const auto row = replay_->row(tick_);
      y_.assign(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(known));
      last_snapshot_ = sim::Snapshot{};
    } else {
      if (spec_.lazy_simulation &&
          simulator_->config().mode == sim::ProbeMode::kSlotSynchronized) {
        // Evaluate only the rows the monitor will actually read this tick:
        // dormant reserve/alternate rows and retired paths cost nothing.
        // The per-unit loss processes consume the same RNG stream either
        // way, so every evaluated entry is bit-identical to a full
        // simulation.
        needed_.assign(rrm_->path_count(), 0);
        for (std::size_t i = 0; i < known; ++i) {
          if (monitor_->path_active(i)) needed_[i] = 1;
        }
        last_snapshot_ = simulator_->next(needed_);
      } else {
        last_snapshot_ = simulator_->next();
      }
      y_.assign(known, 0.0);
      for (std::size_t i = 0; i < known; ++i) {
        if (monitor_->path_active(i)) y_[i] = last_snapshot_.path_log_trans[i];
      }
    }
  }
  if (recorder_) {
    record_row_.assign(rrm_->path_count(), 0.0);
    std::copy(y_.begin(), y_.end(), record_row_.begin());
    recorder_->append(record_row_);
  }
  auto result = monitor_->observe(y_);
  const double seconds = timer.seconds();
  ++tick_;
  if (recorder_ && tick_ == spec_.ticks) recorder_->finish();
  if (result) ++diagnosed_;
  if (!due.empty()) {
    event_tick_.add(seconds);
  } else if (result) {
    steady_tick_.add(seconds);
  }
  max_tick_seconds_ = std::max(max_tick_seconds_, seconds);
  publish_telemetry();
  return result;
}

ScenarioOutcome ScenarioRunner::outcome() const {
  ScenarioOutcome out;
  out.ticks = tick_;
  out.events_applied = events_applied_;
  out.diagnosed = diagnosed_;
  out.active_paths_end = monitor_->active_path_count();
  out.steady_tick_seconds = steady_tick_.count() ? steady_tick_.mean() : 0.0;
  out.event_tick_seconds = event_tick_.count() ? event_tick_.mean() : 0.0;
  out.max_tick_seconds = max_tick_seconds_;
  return out;
}

}  // namespace losstomo::scenario

// Declarative scenario descriptions for dynamic-overlay monitoring runs.
//
// A scenario is a topology, a monitoring window, and an event-scripted
// timeline of overlay churn: paths join and leave, routes change, links go
// down and come back, the congestion regime shifts, and the overlay grows.
// Scenarios drive sim::SnapshotSimulator + core::LiaMonitor through
// scenario::ScenarioRunner (runner.hpp), and are parseable from a small
// text format via io::read_scenario / io::load_scenario
// (src/io/scenario_io.hpp) — the shipped scripts live in scenarios/.
//
// Text format (whitespace-separated, '#' comments):
//
//   scenario flapping-mesh
//   topology mesh nodes=120 hosts=18 seed=7
//   window 30
//   ticks 160
//   seed 11
//   probes 600
//   p 0.08
//   down_loss 0.35
//   initial_paths 40          # active base paths at tick 0 (0 = all)
//   reserve_paths 4           # trailing base paths held back for `grow`
//   at 40 leave path=3
//   at 44 join path=3
//   at 60 reroute path=5
//   at 80 link_down link=2 loss=0.4
//   at 100 link_up link=2
//   at 120 regime p=0.2
//   at 130 grow count=2
//   at 140 grow_links count=2   # reserve paths whose fresh links grow nc
//   at 150 checkpoint file=/tmp/run.ckpt
//   at 150 restore file=/tmp/run.ckpt   # same-tick restore drill
//   at 155 handoff              # in-memory warm-failover drill
//
// Ticks are 0-based measurement periods; an event `at t` is applied
// before the snapshot of tick t is generated and observed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace losstomo::scenario {

enum class EventType {
  kPathJoin,     // activate a known (base) path
  kPathLeave,    // retire a known path
  kRouteChange,  // retire a path, join its precomputed alternate route
  kLinkDown,     // force a virtual link to a severe loss rate
  kLinkUp,       // clear the forcing
  kRegimeShift,  // rescale congestion probability, redraw the regime
  kGrow,         // append paths from the reserve pool as new dimensions
  kGrowLinks,    // like kGrow, but the appended routes may reference fresh
                 // virtual links: the monitor's link universe grows with
                 // them (nc growth of the streaming normal equations).  Any
                 // kGrowLinks event switches the runner to link-discovery
                 // mode — the monitor starts with only the links its known
                 // rows cover, instead of the whole universe basis.
  kCheckpoint,   // save the full runner state to Event::file
                 // (io/checkpoint.hpp format)
  kRestore,      // restore the runner from Event::file; the checkpoint
                 // must have been taken at this same tick (a scripted
                 // restore cannot rewind the timeline)
  kHandoff,      // warm failover drill: serialize to memory, tear down the
                 // monitor and simulator, rebuild them fresh, and restore —
                 // the run must continue bit-identically
};

/// Number of EventType values (per-type counters, telemetry labels).
inline constexpr std::size_t kEventTypeCount =
    static_cast<std::size_t>(EventType::kHandoff) + 1;

/// Name used in the text format ("join", "link_down", ...).
const char* event_type_name(EventType type);

struct Event {
  std::size_t tick = 0;
  EventType type = EventType::kPathJoin;
  std::size_t path = 0;   // kPathJoin / kPathLeave / kRouteChange
  std::size_t link = 0;   // kLinkDown / kLinkUp (virtual-link index)
  double value = 0.0;     // kRegimeShift: new p; kLinkDown: loss (0 = default)
  std::size_t count = 1;  // kGrow / kGrowLinks: paths to append
  std::string file;       // kCheckpoint / kRestore: checkpoint file path
                          // (whitespace-free in the text format)
};

/// How the scenario's network and measurement paths are generated.
struct TopologySpec {
  enum class Kind {
    kTree,           // random tree, root-to-leaf paths (paper §6.1)
    kMesh,           // Waxman mesh, low-degree hosts, routed paths (§6.2)
    kOverlay,        // PlanetLab-like overlay (§7 scenarios)
    kBranchingTree,  // complete `branching`-ary core + `extra_leaves`
                     // growth leaves at branching junctions: the
                     // constructive well-conditioned link-discovery
                     // family (topology::make_branching_tree).  Reserve
                     // exactly extra_leaves paths and feed them to
                     // grow_links for guaranteed tight parity.
  };
  Kind kind = Kind::kTree;
  std::size_t nodes = 120;          // kTree / kMesh
  std::size_t branching = 8;        // kTree / kBranchingTree
  std::size_t hosts = 16;           // kMesh / kOverlay
  std::size_t as_count = 8;         // kOverlay
  std::size_t routers_per_as = 6;   // kOverlay
  std::size_t depth = 3;            // kBranchingTree
  std::size_t extra_leaves = 0;     // kBranchingTree
  std::uint64_t seed = 1;           // generator stream
};

const char* topology_kind_name(TopologySpec::Kind kind);

/// Events in tick order with per-tick lookup.  Construction stable-sorts
/// by tick, so events scripted for one tick apply in script order.
class EventTimeline {
 public:
  EventTimeline() = default;
  explicit EventTimeline(std::vector<Event> events);

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// Events scheduled for exactly `tick` (contiguous, script order).
  [[nodiscard]] std::span<const Event> at(std::size_t tick) const;

  /// Number of events of the given type.
  [[nodiscard]] std::size_t count(EventType type) const;

 private:
  std::vector<Event> events_;  // sorted by tick (stable)
};

/// A full scenario: topology + run parameters + timeline.
struct ScenarioSpec {
  std::string name = "scenario";
  TopologySpec topology;
  /// Learning-window length (the monitor's m).
  std::size_t window = 40;
  /// Total measurement periods to simulate.
  std::size_t ticks = 120;
  /// Simulator seed (independent of the topology seed).
  std::uint64_t seed = 1;
  /// Congested-link fraction at tick 0 (sim::ScenarioConfig::p).
  double p = 0.08;
  /// Probes per path per snapshot (the paper's S).
  std::size_t probes = 600;
  /// Loss rate a kLinkDown event forces when the event carries none.
  double down_loss = 0.35;
  /// Lower bound of the good-link loss range (LossModelConfig::good_lo).
  /// The paper's models allow 0; a positive floor guarantees no path is
  /// ever exactly lossless over a whole window — a constant observation
  /// has *exactly zero* sample covariance, which sits on the drop-negative
  /// policy's discontinuity and makes streaming-vs-batch comparisons
  /// ill-posed (the parity scenarios set this).
  double min_good_loss = 0.0;
  /// Base paths active at tick 0 (the rest start retired and wait for
  /// join events); 0 = all base paths active.
  std::size_t initial_paths = 0;
  /// Trailing base paths held out of the monitor entirely until a kGrow
  /// event appends them as new dimensions.
  std::size_t reserve_paths = 0;
  /// Simulate path measurements lazily: each tick evaluates only the
  /// monitor-active paths (the per-unit loss processes keep evolving for
  /// everything and consume the same RNG stream, so evaluated paths are
  /// bit-identical either way).  A 10k-path universe with a heavy dormant
  /// reserve pool then stops paying a popcount sweep per dormant row per
  /// tick.  Text key: `lazy 0|1`.
  bool lazy_simulation = true;
  std::vector<Event> events;

  /// Structural sanity: window >= 2, ticks > window (something to
  /// diagnose), event ticks < ticks, event payloads in range where
  /// checkable without the topology (full path/link validation happens at
  /// ScenarioRunner construction).  Throws std::invalid_argument.
  void validate() const;

  [[nodiscard]] EventTimeline timeline() const { return EventTimeline(events); }
};

}  // namespace losstomo::scenario

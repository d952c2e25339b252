// Scenario script parsing: round-trips, defaults, and loud failures on
// malformed input (the same philosophy as the trace formats).
#include <gtest/gtest.h>

#include <sstream>

#include "io/scenario_io.hpp"
#include "scenario/spec.hpp"

namespace losstomo::io {
namespace {

using scenario::EventType;
using scenario::TopologySpec;

TEST(ScenarioIo, ParsesFullScript) {
  std::istringstream input(
      "# a comment\n"
      "scenario flapping-mesh\n"
      "topology mesh nodes=120 hosts=18 seed=7\n"
      "window 30\n"
      "ticks 160\n"
      "seed 11\n"
      "probes 600\n"
      "p 0.08\n"
      "down_loss 0.3\n"
      "min_good_loss 0.002\n"
      "initial_paths 40\n"
      "reserve_paths 4\n"
      "at 40 leave path=3\n"
      "at 44 join path=3   # flap back\n"
      "at 60 reroute path=5\n"
      "at 80 link_down link=2 loss=0.4\n"
      "at 100 link_up link=2\n"
      "at 120 regime p=0.2\n"
      "at 130 grow count=4\n"
      "at 140 grow_links count=2\n"
      "lazy 0\n");
  const auto spec = read_scenario(input);
  EXPECT_EQ(spec.name, "flapping-mesh");
  EXPECT_EQ(spec.topology.kind, TopologySpec::Kind::kMesh);
  EXPECT_EQ(spec.topology.nodes, 120u);
  EXPECT_EQ(spec.topology.hosts, 18u);
  EXPECT_EQ(spec.topology.seed, 7u);
  EXPECT_EQ(spec.window, 30u);
  EXPECT_EQ(spec.ticks, 160u);
  EXPECT_EQ(spec.probes, 600u);
  EXPECT_DOUBLE_EQ(spec.p, 0.08);
  EXPECT_DOUBLE_EQ(spec.down_loss, 0.3);
  EXPECT_DOUBLE_EQ(spec.min_good_loss, 0.002);
  EXPECT_EQ(spec.initial_paths, 40u);
  EXPECT_EQ(spec.reserve_paths, 4u);
  EXPECT_FALSE(spec.lazy_simulation);
  ASSERT_EQ(spec.events.size(), 8u);
  EXPECT_EQ(spec.events[0].type, EventType::kPathLeave);
  EXPECT_EQ(spec.events[0].tick, 40u);
  EXPECT_EQ(spec.events[0].path, 3u);
  EXPECT_EQ(spec.events[3].type, EventType::kLinkDown);
  EXPECT_DOUBLE_EQ(spec.events[3].value, 0.4);
  EXPECT_EQ(spec.events[5].type, EventType::kRegimeShift);
  EXPECT_DOUBLE_EQ(spec.events[5].value, 0.2);
  EXPECT_EQ(spec.events[6].type, EventType::kGrow);
  EXPECT_EQ(spec.events[6].count, 4u);
  EXPECT_EQ(spec.events[7].type, EventType::kGrowLinks);
  EXPECT_EQ(spec.events[7].count, 2u);
}

TEST(ScenarioIo, WriteReadRoundTrip) {
  scenario::ScenarioSpec spec;
  spec.name = "round-trip";
  spec.topology.kind = TopologySpec::Kind::kOverlay;
  spec.topology.hosts = 14;
  spec.topology.as_count = 9;
  spec.topology.routers_per_as = 5;
  spec.topology.seed = 3;
  spec.window = 20;
  spec.ticks = 70;
  spec.seed = 42;
  spec.probes = 500;
  spec.p = 0.123456789012345;  // full double precision must round-trip
  spec.down_loss = 0.25;
  spec.min_good_loss = 0.001;
  spec.reserve_paths = 6;
  spec.lazy_simulation = false;  // non-default value must round-trip
  spec.events = {
      {.tick = 30, .type = EventType::kGrow, .count = 3},
      {.tick = 35, .type = EventType::kGrowLinks, .count = 2},
      {.tick = 40, .type = EventType::kLinkDown, .link = 1, .value = 0.5},
      {.tick = 50, .type = EventType::kRegimeShift, .value = 0.3},
  };
  std::stringstream buffer;
  write_scenario(buffer, spec);
  const auto loaded = read_scenario(buffer);
  EXPECT_EQ(loaded.name, spec.name);
  EXPECT_EQ(loaded.topology.kind, spec.topology.kind);
  EXPECT_EQ(loaded.topology.hosts, spec.topology.hosts);
  EXPECT_EQ(loaded.topology.as_count, spec.topology.as_count);
  EXPECT_EQ(loaded.window, spec.window);
  EXPECT_EQ(loaded.ticks, spec.ticks);
  EXPECT_DOUBLE_EQ(loaded.p, spec.p);
  EXPECT_DOUBLE_EQ(loaded.min_good_loss, spec.min_good_loss);
  EXPECT_EQ(loaded.reserve_paths, spec.reserve_paths);
  EXPECT_EQ(loaded.lazy_simulation, spec.lazy_simulation);
  ASSERT_EQ(loaded.events.size(), spec.events.size());
  for (std::size_t i = 0; i < spec.events.size(); ++i) {
    EXPECT_EQ(loaded.events[i].tick, spec.events[i].tick);
    EXPECT_EQ(loaded.events[i].type, spec.events[i].type);
    EXPECT_DOUBLE_EQ(loaded.events[i].value, spec.events[i].value);
    EXPECT_EQ(loaded.events[i].count, spec.events[i].count);
  }
}

TEST(ScenarioIo, RejectsMalformedScripts) {
  const auto rejects = [](const std::string& text) {
    std::istringstream input(text);
    EXPECT_THROW(read_scenario(input), std::runtime_error) << text;
  };
  rejects("");                                   // empty
  rejects("topology tree\n");                    // missing scenario header
  rejects("scenario x\nfrobnicate 3\n");         // unknown keyword
  rejects("scenario x\ntopology blob\n");        // unknown topology kind
  rejects("scenario x\ntopology tree nodes=abc\n");
  rejects("scenario x\nwindow\n");               // missing value
  rejects("scenario x\nat 5 explode path=1\n");  // unknown event
  rejects("scenario x\nat 5 leave\n");           // missing attribute
  rejects("scenario x\nat 5 leave path=1 path\n");  // not key=value
  rejects("scenario x\nwindow 8\nticks 4\n");    // validate(): ticks<=window
  rejects("scenario x\nat 500 leave path=1\n");  // event beyond end
  rejects("scenario x\nat 5 regime p=1.5\n");    // out-of-range p
  // Negative counts must fail at the parse site, not wrap to 2^64-1 (a
  // 'probes -1' typo would otherwise try to allocate ~2^58 mask words).
  rejects("scenario x\nprobes -1\n");
  rejects("scenario x\nseed -3\n");
  rejects("scenario x\nat -2 leave path=1\n");
  rejects("scenario x\nat 5 leave path=-1\n");
  rejects("scenario x\ntopology tree nodes=-4\n");
}

TEST(ScenarioIo, TimelineOrdersAndLooksUpEvents) {
  std::vector<scenario::Event> events{
      {.tick = 9, .type = EventType::kPathJoin, .path = 1},
      {.tick = 3, .type = EventType::kPathLeave, .path = 1},
      {.tick = 9, .type = EventType::kLinkUp, .link = 0},
  };
  const scenario::EventTimeline timeline(events);
  EXPECT_EQ(timeline.size(), 3u);
  EXPECT_EQ(timeline.events().front().tick, 3u);
  EXPECT_TRUE(timeline.at(0).empty());
  ASSERT_EQ(timeline.at(3).size(), 1u);
  // Same-tick events keep script order.
  const auto at9 = timeline.at(9);
  ASSERT_EQ(at9.size(), 2u);
  EXPECT_EQ(at9[0].type, EventType::kPathJoin);
  EXPECT_EQ(at9[1].type, EventType::kLinkUp);
  EXPECT_EQ(timeline.count(EventType::kPathLeave), 1u);
  EXPECT_EQ(timeline.count(EventType::kGrow), 0u);
}

TEST(ScenarioIo, ParsesFailoverEvents) {
  std::istringstream input(
      "scenario drill\n"
      "window 5\n"
      "ticks 20\n"
      "at 5 checkpoint file=/tmp/x.ckpt\n"
      "at 5 restore file=/tmp/x.ckpt\n"
      "at 6 handoff\n");
  const auto spec = read_scenario(input);
  ASSERT_EQ(spec.events.size(), 3u);
  EXPECT_EQ(spec.events[0].type, EventType::kCheckpoint);
  EXPECT_EQ(spec.events[0].file, "/tmp/x.ckpt");
  EXPECT_EQ(spec.events[1].type, EventType::kRestore);
  EXPECT_EQ(spec.events[1].file, "/tmp/x.ckpt");
  EXPECT_EQ(spec.events[2].type, EventType::kHandoff);
  EXPECT_EQ(spec.events[2].tick, 6u);
}

TEST(ScenarioIo, FailoverEventsRoundTrip) {
  scenario::ScenarioSpec spec;
  spec.name = "failover-round-trip";
  spec.window = 10;
  spec.ticks = 40;
  spec.events = {
      {.tick = 20, .type = EventType::kCheckpoint, .file = "/tmp/a.ckpt"},
      {.tick = 20, .type = EventType::kRestore, .file = "/tmp/a.ckpt"},
      {.tick = 25, .type = EventType::kHandoff},
  };
  std::stringstream buffer;
  write_scenario(buffer, spec);
  const auto loaded = read_scenario(buffer);
  ASSERT_EQ(loaded.events.size(), 3u);
  for (std::size_t i = 0; i < spec.events.size(); ++i) {
    EXPECT_EQ(loaded.events[i].tick, spec.events[i].tick);
    EXPECT_EQ(loaded.events[i].type, spec.events[i].type);
    EXPECT_EQ(loaded.events[i].file, spec.events[i].file);
  }
}

TEST(ScenarioIo, ErrorsCarryOneBasedLineNumbers) {
  const auto message_of = [](const std::string& text) -> std::string {
    std::istringstream input(text);
    try {
      read_scenario(input);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    ADD_FAILURE() << "parsed without error: " << text;
    return {};
  };
  // Line numbers count raw lines, comments and blanks included.
  EXPECT_NE(message_of("scenario x\n# note\n\nfrobnicate 3\n")
                .find("scenario line 4: unknown keyword"),
            std::string::npos);
  EXPECT_NE(message_of("scenario x\nwindow 5\nticks 20\nat 5 leave\n")
                .find("scenario line 4: missing attribute 'path'"),
            std::string::npos);
  // Checkpoint/restore events demand a file= attribute at parse time.
  EXPECT_NE(message_of("scenario x\nwindow 5\nticks 20\nat 5 checkpoint\n")
                .find("scenario line 4: missing attribute 'file'"),
            std::string::npos);
  EXPECT_NE(message_of("scenario x\nwindow 5\nticks 20\nat 5 restore\n")
                .find("scenario line 4: missing attribute 'file'"),
            std::string::npos);
}

// A stream whose medium dies mid-script: read_scenario must call that out
// as an I/O failure, not parse the truncated prefix as a whole scenario.
class DyingStreambuf : public std::streambuf {
 public:
  explicit DyingStreambuf(std::string head) : head_(std::move(head)) {
    setg(head_.data(), head_.data(), head_.data() + head_.size());
  }

 protected:
  int_type underflow() override { throw std::runtime_error("disk vanished"); }

 private:
  std::string head_;
};

TEST(ScenarioIo, BadbitIsAnIoFailureNotEof) {
  DyingStreambuf buf("scenario half-written\nwindow 5\n");
  std::istream input(&buf);
  try {
    read_scenario(input);
    FAIL() << "accepted a scenario from a dying stream";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("stream I/O failure after line 2"),
              std::string::npos)
        << e.what();
  }
}

TEST(ScenarioIo, ShippedScenariosParse) {
  // The scripts shipped in scenarios/ stay loadable.
  for (const char* name :
       {"stable_tree", "flapping_mesh", "growing_overlay", "regime_shift",
        "failover", "mass_growth"}) {
    SCOPED_TRACE(name);
    EXPECT_NO_THROW({
      const auto spec =
          load_scenario(std::string(LOSSTOMO_SOURCE_DIR "/scenarios/") + name +
                        ".scn");
      EXPECT_FALSE(spec.name.empty());
    });
  }
}

}  // namespace
}  // namespace losstomo::io

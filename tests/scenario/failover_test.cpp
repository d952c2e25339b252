// Crash-drill acceptance tests for checkpoint/restore at the scenario
// level: kill the run at EVERY tick of a churn scenario, restore into a
// fresh runner, and require the resumed inferences to be bit-identical to
// the uninterrupted run with the cached factor carried across (exactly one
// factorization per resumed run, no downdate fallbacks, no jitter) — for
// the dense and the pair-indexed (kSharingPairs) accumulator alike, and
// across link-universe growth.  Also pins the scripted failover events
// (checkpoint / restore / handoff — the shipped scenarios/failover.scn) to
// be invisible to the inference stream, and that a damaged checkpoint is
// rejected cleanly with the runner left fully usable.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "io/checkpoint.hpp"
#include "io/scenario_io.hpp"
#include "linalg/matrix.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "test_util.hpp"

namespace losstomo::scenario {
namespace {

// The churn-parity mesh instance, shortened: every event type that touches
// the monitor state happens before the kill window ends.
ScenarioSpec drill_spec() {
  ScenarioSpec spec;
  spec.name = "failover-drill";
  spec.topology.kind = TopologySpec::Kind::kMesh;
  spec.topology.nodes = 40;
  spec.topology.hosts = 24;
  spec.topology.seed = 3;
  spec.window = 25;
  spec.ticks = 60;
  spec.seed = 11;
  spec.p = 0.6;
  spec.probes = 600;
  spec.min_good_loss = 0.002;
  spec.reserve_paths = 3;
  spec.events = {
      {.tick = 30, .type = EventType::kPathLeave, .path = 3},
      {.tick = 34, .type = EventType::kPathJoin, .path = 3},
      {.tick = 45, .type = EventType::kRouteChange, .path = 5},
      {.tick = 50, .type = EventType::kLinkDown, .link = 2},
      {.tick = 55, .type = EventType::kGrow, .count = 2},
  };
  return spec;
}

// Link-discovery drill over the constructive branching-tree family: the
// restore path must rebuild the accumulator mid-growth, after the link
// universe has already widened.
ScenarioSpec grow_links_drill_spec() {
  ScenarioSpec spec;
  spec.name = "grow-links-drill";
  spec.topology.kind = TopologySpec::Kind::kBranchingTree;
  spec.topology.depth = 3;
  spec.topology.branching = 4;
  spec.topology.extra_leaves = 3;
  spec.topology.seed = 5;
  spec.window = 30;
  spec.ticks = 70;
  spec.seed = 11;
  spec.p = 0.6;
  spec.probes = 800;
  spec.min_good_loss = 0.002;
  spec.reserve_paths = 3;
  spec.events = {
      {.tick = 40, .type = EventType::kGrowLinks, .count = 2},
      {.tick = 55, .type = EventType::kGrowLinks, .count = 1},
  };
  return spec;
}

core::MonitorOptions drill_options(std::size_t threads) {
  core::MonitorOptions options;
  options.lia.variance.threads = threads;
  return options;
}

// The pair-indexed accumulator's drill configuration.  Whole churn bursts
// are absorbed as rank-1/bordered factor steps instead of tripping the
// drift cap, so one factorization covers the whole run.
core::MonitorOptions pair_drill_options() {
  core::MonitorOptions options = drill_options(1);
  options.accumulator = core::CovarianceAccumulator::kSharingPairs;
  options.lia.variance.factor_flip_threshold = 1u << 20;
  options.lia.variance.factor_update_cap = 1u << 20;
  return options;
}

struct UninterruptedRun {
  std::vector<std::optional<linalg::Vector>> losses;  // per tick
  std::vector<std::vector<std::uint8_t>> images;      // checkpoint per tick
  std::size_t refactorizations = 0;
};

// One continuous run that checkpoints itself (to memory) before every
// tick: images[t] is the state a process dying right before tick t would
// have recovered from.
UninterruptedRun uninterrupted(const ScenarioSpec& spec,
                               const core::MonitorOptions& options) {
  UninterruptedRun run;
  ScenarioRunner runner(spec, options);
  while (runner.ticks_run() < spec.ticks) {
    io::CheckpointWriter writer;
    runner.save_state(writer);
    run.images.push_back(writer.finish());
    const auto inference = runner.step();
    run.losses.push_back(inference
                             ? std::optional<linalg::Vector>(inference->loss)
                             : std::nullopt);
  }
  run.refactorizations =
      runner.monitor().streaming_equations().refactorizations();
  return run;
}

// Restores a fresh runner from images[kill_at] and finishes the scenario,
// requiring bit-identical inferences and an intact factor cache.
void expect_bit_identical_resume(const ScenarioSpec& spec,
                                 const core::MonitorOptions& options,
                                 const UninterruptedRun& ref,
                                 std::size_t kill_at,
                                 const std::string& label) {
  ScenarioRunner runner(spec, options);
  auto reader = io::CheckpointReader::from_bytes(ref.images[kill_at]);
  runner.restore_state(reader);
  ASSERT_EQ(runner.ticks_run(), kill_at) << label;
  while (runner.ticks_run() < spec.ticks) {
    const std::size_t tick = runner.ticks_run();
    const auto inference = runner.step();
    ASSERT_EQ(inference.has_value(), ref.losses[tick].has_value())
        << label << " tick " << tick;
    if (!inference) continue;
    // Bit-identical, not merely close: restore must be exact resumption.
    EXPECT_EQ(linalg::max_abs_diff(inference->loss, *ref.losses[tick]), 0.0)
        << label << " tick " << tick;
    EXPECT_EQ(runner.monitor().variances().jitter_used, 0.0)
        << label << " tick " << tick;
  }
  const auto& eqs = runner.monitor().streaming_equations();
  EXPECT_EQ(eqs.refactorizations(), ref.refactorizations) << label;
  EXPECT_EQ(eqs.refactorizations(), 1u) << label;
  EXPECT_EQ(eqs.downdate_fallbacks(), 0u) << label;
}

TEST(Failover, KillAtEveryTickResumesBitIdentically) {
  const auto spec = drill_spec();
  const auto options = drill_options(1);
  const auto ref = uninterrupted(spec, options);
  ASSERT_EQ(ref.images.size(), spec.ticks);
  for (std::size_t kill_at = 1; kill_at < spec.ticks; ++kill_at) {
    expect_bit_identical_resume(spec, options, ref, kill_at,
                                "kill_at=" + std::to_string(kill_at));
  }
}

TEST(Failover, PairAccumulatorKillAtEveryTickResumesBitIdentically) {
  const auto spec = drill_spec();
  const auto options = pair_drill_options();
  const auto ref = uninterrupted(spec, options);
  ASSERT_EQ(ref.images.size(), spec.ticks);
  for (std::size_t kill_at = 1; kill_at < spec.ticks; ++kill_at) {
    expect_bit_identical_resume(spec, options, ref, kill_at,
                                "kill_at=" + std::to_string(kill_at));
  }
}

TEST(Failover, GrowLinksDrillResumesAcrossUniverseGrowth) {
  const auto spec = grow_links_drill_spec();
  const auto options = pair_drill_options();
  const auto ref = uninterrupted(spec, options);
  ASSERT_EQ(ref.refactorizations, 1u);
  // Curated kill points: mid-warmup, right after the window fills,
  // straight after each grow_links burst, and late in the run.
  for (const std::size_t kill_at : {12u, 31u, 41u, 56u, 65u}) {
    expect_bit_identical_resume(spec, options, ref, kill_at,
                                "kill_at=" + std::to_string(kill_at));
  }
}

TEST(Failover, ResumeIsThreadCountIndependent) {
  const auto spec = drill_spec();
  for (const std::size_t threads : {2u, 8u}) {
    const auto options = drill_options(threads);
    const auto ref = uninterrupted(spec, options);
    // Curated kill points: mid-warmup, right after the window fills, mid
    // churn, and straight after the growth burst.
    for (const std::size_t kill_at : {12u, 26u, 46u, 56u}) {
      expect_bit_identical_resume(
          spec, options, ref, kill_at,
          "threads=" + std::to_string(threads) +
              "/kill_at=" + std::to_string(kill_at));
    }
  }
}

TEST(Failover, ScriptedFailoverEventsAreInvisible) {
  // The shipped failover scenario (checkpoint + same-tick restore +
  // handoff) must produce the exact inference stream of the same scenario
  // with those events stripped.
  auto spec = io::load_scenario(
      std::string(LOSSTOMO_SOURCE_DIR "/scenarios/failover.scn"));
  auto clean = spec;
  std::erase_if(clean.events, [](const Event& e) {
    return e.type == EventType::kCheckpoint ||
           e.type == EventType::kRestore || e.type == EventType::kHandoff;
  });
  ASSERT_EQ(clean.events.size() + 3, spec.events.size());

  const auto options = drill_options(1);
  std::vector<std::optional<linalg::Vector>> reference;
  ScenarioRunner clean_runner(clean, options);
  clean_runner.run([&](std::size_t, std::size_t,
                       const std::optional<core::LossInference>& inf) {
    reference.push_back(inf ? std::optional<linalg::Vector>(inf->loss)
                            : std::nullopt);
  });

  ScenarioRunner runner(spec, options);
  std::size_t tick = 0;
  runner.run([&](std::size_t, std::size_t,
                 const std::optional<core::LossInference>& inf) {
    const auto& ref = reference[tick++];
    ASSERT_EQ(inf.has_value(), ref.has_value());
    if (inf) {
      EXPECT_EQ(linalg::max_abs_diff(inf->loss, *ref), 0.0);
    }
  });
  const auto outcome = runner.outcome();
  // All three failover events applied, on top of the regular churn.
  EXPECT_EQ(outcome.events_applied, clean_runner.outcome().events_applied + 3);
  const auto& eqs = runner.monitor().streaming_equations();
  EXPECT_EQ(eqs.refactorizations(), 1u);
  std::remove("/tmp/losstomo_failover.ckpt");
}

TEST(Failover, RestoreRunnerRebuildsFromTheFileAlone) {
  const auto spec = drill_spec();
  const auto options = drill_options(1);
  const std::string file = losstomo::testing::scratch_file("restore.ckpt");
  std::vector<std::optional<linalg::Vector>> reference;
  {
    ScenarioRunner runner(spec, options);
    while (runner.ticks_run() < 40) (void)runner.step();
    runner.save_checkpoint(file);
    while (runner.ticks_run() < spec.ticks) {
      const auto inf = runner.step();
      reference.push_back(inf ? std::optional<linalg::Vector>(inf->loss)
                              : std::nullopt);
    }
  }
  auto resumed = restore_runner(file, options);
  EXPECT_EQ(resumed.ticks_run(), 40u);
  EXPECT_EQ(resumed.spec().name, spec.name);
  std::size_t at = 0;
  while (resumed.ticks_run() < resumed.spec().ticks) {
    const auto inf = resumed.step();
    const auto& ref = reference[at++];
    ASSERT_EQ(inf.has_value(), ref.has_value());
    if (inf) {
      EXPECT_EQ(linalg::max_abs_diff(inf->loss, *ref), 0.0);
    }
  }
  std::remove(file.c_str());
}

TEST(Failover, DamagedCheckpointIsRejectedAndRunnerStaysUsable) {
  const auto spec = drill_spec();
  const auto options = drill_options(1);
  ScenarioRunner runner(spec, options);
  while (runner.ticks_run() < 30) (void)runner.step();

  io::CheckpointWriter writer;
  runner.save_state(writer);
  const auto image = writer.finish();

  // Truncated and bit-flipped images: typed rejection, no partial state.
  {
    std::vector<std::uint8_t> cut(image.begin(),
                                  image.begin() + image.size() / 3);
    EXPECT_THROW(io::CheckpointReader::from_bytes(std::move(cut)),
                 io::CheckpointError);
  }
  {
    auto flipped = image;
    flipped[flipped.size() / 2] ^= 0x10;
    EXPECT_THROW(io::CheckpointReader::from_bytes(std::move(flipped)),
                 io::CheckpointError);
  }
  // A checkpoint from a DIFFERENT scenario: valid file, wrong target.
  {
    auto other = spec;
    other.seed = 404;
    other.name = "someone-else";
    ScenarioRunner other_runner(other, options);
    while (other_runner.ticks_run() < 5) (void)other_runner.step();
    io::CheckpointWriter other_writer;
    other_runner.save_state(other_writer);
    auto reader = io::CheckpointReader::from_bytes(other_writer.finish());
    try {
      runner.restore_state(reader);
      FAIL() << "accepted a checkpoint from a different scenario";
    } catch (const io::CheckpointError& e) {
      EXPECT_EQ(e.kind(), io::CheckpointErrorKind::kMismatch);
    }
  }
  // The failed restores must not have perturbed the runner: a good image
  // still restores, and the run completes.
  auto reader = io::CheckpointReader::from_bytes(image);
  runner.restore_state(reader);
  EXPECT_EQ(runner.ticks_run(), 30u);
  while (runner.ticks_run() < spec.ticks) (void)runner.step();
  EXPECT_EQ(runner.outcome().ticks, spec.ticks);
}

TEST(Failover, ScriptedRestoreOfForeignTickIsRefused) {
  // A restore event pointing at a checkpoint of a DIFFERENT tick must be
  // refused (it would rewind the timeline and replay itself forever).
  auto spec = drill_spec();
  const std::string file =
      losstomo::testing::scratch_file("wrong_tick.ckpt");
  {
    ScenarioRunner runner(spec, drill_options(1));
    while (runner.ticks_run() < 20) (void)runner.step();
    runner.save_checkpoint(file);
  }
  auto scripted = spec;
  scripted.events.push_back(
      {.tick = 35, .type = EventType::kRestore, .file = file});
  ScenarioRunner runner(scripted, drill_options(1));
  EXPECT_THROW(
      {
        while (runner.ticks_run() < scripted.ticks) (void)runner.step();
      },
      std::runtime_error);
  std::remove(file.c_str());
}

std::vector<std::uint8_t> runner_image(const ScenarioRunner& runner) {
  io::CheckpointWriter writer;
  runner.save_state(writer);
  return writer.finish();
}

TEST(Failover, ShippedScenarioImagesMatchAcrossKillAndRestore) {
  // The runner image holds state only (no wall-clock timings), so a run
  // killed mid-way and restored into a fresh runner ends with the same
  // bytes as the uninterrupted run of every shipped scenario.
  for (const char* name : {"failover", "flapping_mesh", "growing_overlay",
                           "mass_growth", "regime_shift", "stable_tree"}) {
    auto spec = io::load_scenario(std::string(LOSSTOMO_SOURCE_DIR) +
                                  "/scenarios/" + name + ".scn");
    const std::string file =
        losstomo::testing::scratch_file(std::string(name) + "_image.ckpt");
    for (auto& event : spec.events) {
      if (!event.file.empty()) event.file = file;
    }
    ScenarioRunner uninterrupted(spec);
    while (uninterrupted.ticks_run() < spec.ticks) (void)uninterrupted.step();

    std::optional<ScenarioRunner> resumed(std::in_place, spec);
    while (resumed->ticks_run() < spec.ticks / 2) (void)resumed->step();
    auto reader = io::CheckpointReader::from_bytes(runner_image(*resumed));
    resumed.emplace(spec);
    resumed->restore_state(reader);
    while (resumed->ticks_run() < spec.ticks) (void)resumed->step();

    // Compared whole, not printed: the images run to megabytes.
    EXPECT_TRUE(runner_image(*resumed) == runner_image(uninterrupted)) << name;
    std::remove(file.c_str());
  }
}

}  // namespace
}  // namespace losstomo::scenario

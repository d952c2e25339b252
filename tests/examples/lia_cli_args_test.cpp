// Regression tests for the lia_cli argument surface: unknown modes and
// unknown/misspelled key=value arguments must exit 2 with usage text (a
// typo that silently fell back to defaults once burned a whole overnight
// campaign), and metrics= must leave a parseable telemetry snapshot
// behind.
//
// These tests exec the real binary (CMake injects its path as
// LOSSTOMO_LIA_CLI_PATH and makes the tests depend on it); when the
// examples are not built the whole suite compiles to a skip stub.
#include <gtest/gtest.h>

#ifdef LOSSTOMO_LIA_CLI_PATH

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "test_util.hpp"

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved
};

// Runs the CLI with `argv_tail`, capturing combined output to a scratch
// file (portable enough for POSIX sh; ctest runs these in parallel, so
// the capture file must be per-test).
RunResult run_cli(const std::string& argv_tail) {
  const std::string capture = losstomo::testing::scratch_file("cli.out");
  const std::string command = std::string(LOSSTOMO_LIA_CLI_PATH) + " " +
                              argv_tail + " > " + capture + " 2>&1";
  const int status = std::system(command.c_str());
  RunResult result;
#ifdef WIFEXITED
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
#else
  result.exit_code = status;
#endif
  std::ifstream is(capture);
  std::ostringstream os;
  os << is.rdbuf();
  result.output = os.str();
  std::remove(capture.c_str());
  return result;
}

std::string scenario_fixture() {
  return std::string(LOSSTOMO_SOURCE_DIR) + "/scenarios/stable_tree.scn";
}

TEST(LiaCliArgs, UnknownModeExits2WithUsage) {
  const auto result = run_cli("mode=frobnicate");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("unknown mode"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("usage:"), std::string::npos) << result.output;
}

TEST(LiaCliArgs, UnknownKeyExits2WithUsage) {
  // `tick=` is a typo for `ticks=`: it must fail loudly, not run the
  // scenario with the default tick count.  `shards=` named a partitioned
  // accumulator that no longer exists; both modes that once took it must
  // reject it the same way, not ignore it.
  const std::string scenario = "mode=scenario scenario=" + scenario_fixture();
  for (const std::string& argv_tail :
       {scenario + " tick=40", scenario + " shards=2",
        std::string("mode=monitor topology=t paths=p snapshots=s shards=2")}) {
    const auto result = run_cli(argv_tail);
    EXPECT_EQ(result.exit_code, 2) << argv_tail << '\n' << result.output;
    EXPECT_NE(result.output.find("unknown argument"), std::string::npos)
        << argv_tail << '\n' << result.output;
    EXPECT_NE(result.output.find("usage:"), std::string::npos)
        << argv_tail << '\n' << result.output;
  }
}

TEST(LiaCliArgs, TrailingGarbageExits2) {
  const auto result = run_cli("mode=infer extra_nonsense_key=1");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("usage:"), std::string::npos) << result.output;
}

TEST(LiaCliArgs, ScenarioMetricsSnapshotIsWritten) {
  const std::string metrics = losstomo::testing::scratch_file("metrics.json");
  const auto result =
      run_cli("mode=scenario scenario=" + scenario_fixture() +
              " ticks=40 window=12 metrics=" + metrics + " metrics_every=10");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  std::ifstream is(metrics);
  ASSERT_TRUE(is.good()) << "metrics file missing: " << metrics;
  std::ostringstream os;
  os << is.rdbuf();
  const std::string text = os.str();
  EXPECT_NE(text.find("\"schema\": \"losstomo.metrics\""), std::string::npos);
  EXPECT_NE(text.find("\"scenario.ticks\""), std::string::npos);
  EXPECT_NE(text.find("\"monitor.rank1_updates\""), std::string::npos);
  EXPECT_NE(text.find("\"span.tick.seconds\""), std::string::npos);
  EXPECT_NE(text.find("\"flight_recorder\""), std::string::npos);
  std::remove(metrics.c_str());
}

TEST(LiaCliArgs, PromSuffixSwitchesToPrometheus) {
  const std::string metrics = losstomo::testing::scratch_file("metrics.prom");
  const auto result =
      run_cli("mode=scenario scenario=" + scenario_fixture() +
              " ticks=30 window=12 metrics=" + metrics);
  ASSERT_EQ(result.exit_code, 0) << result.output;
  std::ifstream is(metrics);
  ASSERT_TRUE(is.good()) << "metrics file missing: " << metrics;
  std::ostringstream os;
  os << is.rdbuf();
  EXPECT_NE(os.str().find("# TYPE losstomo_scenario_ticks counter"),
            std::string::npos);
  std::remove(metrics.c_str());
}

}  // namespace

#else  // !LOSSTOMO_LIA_CLI_PATH

TEST(LiaCliArgs, DISABLED_RequiresExampleBinary) {
  GTEST_SKIP() << "examples not built; lia_cli path unavailable";
}

#endif

#include "core/monitor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "batch_oracle.hpp"
#include "core/metrics.hpp"
#include "sim/probe_sim.hpp"
#include "test_util.hpp"
#include "topology/generators.hpp"

namespace losstomo::core {
namespace {

TEST(LiaMonitor, WarmupProducesNoDiagnosis) {
  const linalg::SparseBinaryMatrix r(2, {{0}, {1}});
  LiaMonitor monitor(r, {.window = 3});
  const linalg::Vector y{0.0, 0.0};
  EXPECT_FALSE(monitor.observe(y).has_value());
  EXPECT_FALSE(monitor.observe(y).has_value());
  EXPECT_FALSE(monitor.observe(y).has_value());
  EXPECT_TRUE(monitor.observe(y).has_value());  // 4th tick: window full
  EXPECT_TRUE(monitor.warmed_up());
  EXPECT_EQ(monitor.ticks(), 4u);
}

TEST(LiaMonitor, RejectsBadConfig) {
  const linalg::SparseBinaryMatrix r(1, {{0}});
  EXPECT_THROW(LiaMonitor(r, {.window = 1}), std::invalid_argument);
  EXPECT_THROW(LiaMonitor(r, {.window = 5, .relearn_every = 0}),
               std::invalid_argument);
}

TEST(LiaMonitor, RejectsWrongSnapshotSize) {
  const linalg::SparseBinaryMatrix r(2, {{0}, {1}});
  LiaMonitor monitor(r, {.window = 2});
  const linalg::Vector wrong{0.0};
  EXPECT_THROW(monitor.observe(wrong), std::invalid_argument);
}

TEST(LiaMonitor, MatchesManualLearnInferSplit) {
  // Feeding m+1 snapshots must reproduce exactly Lia::learn(first m) +
  // infer(last).
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  stats::Rng rng(301);
  const auto v = losstomo::testing::random_variances(rrm.link_count(), rng, 0.3);
  const linalg::Vector mu(rrm.link_count(), -0.05);
  const std::size_t m = 12;
  const auto y =
      losstomo::testing::synthetic_observations(rrm.matrix(), mu, v, m + 1, rng);

  LiaMonitor monitor(rrm.matrix(), {.window = m});
  std::optional<LossInference> from_monitor;
  for (std::size_t l = 0; l <= m; ++l) {
    from_monitor = monitor.observe(y.sample(l));
  }
  ASSERT_TRUE(from_monitor.has_value());

  stats::SnapshotMatrix history(rrm.path_count(), m);
  for (std::size_t l = 0; l < m; ++l) {
    const auto src = y.sample(l);
    std::copy(src.begin(), src.end(), history.sample(l).begin());
  }
  Lia lia(rrm.matrix());
  lia.learn(history);
  const auto manual = lia.infer(y.sample(m));
  EXPECT_LT(linalg::max_abs_diff(from_monitor->loss, manual.loss), 1e-12);
}

TEST(LiaMonitor, SlidingWindowTracksRegimeChange) {
  // The congested link changes identity mid-run; after enough new
  // snapshots the monitor's variance ordering must follow.
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  const std::size_t nc = rrm.link_count();
  stats::Rng rng(302);
  const std::size_t m = 20;
  LiaMonitor monitor(rrm.matrix(), {.window = m});

  const auto feed = [&](std::size_t hot_link, std::size_t count) {
    linalg::Vector mu(nc, -1e-4);
    linalg::Vector v(nc, 1e-10);
    mu[hot_link] = -0.1;
    v[hot_link] = 0.01;
    std::optional<LossInference> last;
    for (std::size_t l = 0; l < count; ++l) {
      linalg::Vector x(nc);
      for (std::size_t k = 0; k < nc; ++k) {
        x[k] = std::min(rng.gaussian(mu[k], std::sqrt(v[k])), 0.0);
      }
      last = monitor.observe(rrm.matrix().multiply(x));
    }
    return last;
  };

  const auto before = feed(0, 2 * m);
  ASSERT_TRUE(before.has_value());
  EXPECT_GT(before->loss[0], 0.01);
  // Regime change: link 3 becomes the hot one.
  const auto after = feed(3, 3 * m);
  ASSERT_TRUE(after.has_value());
  EXPECT_GT(after->loss[3], 0.01);
  EXPECT_LT(after->loss[0], 0.01);
}

TEST(LiaMonitor, RelearnEveryAmortizes) {
  // With relearn_every = 5 the variance estimate stays frozen between
  // re-learns but diagnoses continue every tick.
  const auto net = losstomo::testing::make_fig1_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  stats::Rng rng(303);
  const auto v = losstomo::testing::random_variances(rrm.link_count(), rng, 0.4);
  const linalg::Vector mu(rrm.link_count(), -0.02);
  const std::size_t m = 8;
  const auto y = losstomo::testing::synthetic_observations(rrm.matrix(), mu, v,
                                                           m + 10, rng);
  LiaMonitor monitor(rrm.matrix(), {.window = m, .relearn_every = 5});
  std::size_t diagnoses = 0;
  for (std::size_t l = 0; l < m + 10; ++l) {
    if (monitor.observe(y.sample(l)).has_value()) ++diagnoses;
  }
  EXPECT_EQ(diagnoses, 10u);
}

// The streaming monitor (incremental covariance + cached-factor normal
// equations) must reproduce the from-scratch batch relearn on every
// diagnosed tick, under both negative-covariance policies, through several
// window wrap-arounds.
TEST(LiaMonitor, StreamingEngineMatchesBatchEngine) {
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  stats::Rng rng(310);
  const auto v = losstomo::testing::random_variances(rrm.link_count(), rng, 0.4);
  const linalg::Vector mu(rrm.link_count(), -0.05);
  const std::size_t m = 10;
  const std::size_t ticks = 4 * m;  // >= 3 wrap-arounds
  const auto y =
      losstomo::testing::synthetic_observations(rrm.matrix(), mu, v, ticks, rng);

  for (const auto policy : {NegativeCovariancePolicy::kDrop,
                            NegativeCovariancePolicy::kKeep}) {
    MonitorOptions options{.window = m};
    options.lia.variance.negatives = policy;
    // Cross a drift-refresh boundary mid-run.
    options.refresh_every = m + 3;

    losstomo::testing::BatchRelearnOracle batch(rrm.matrix(), options);
    LiaMonitor streaming(rrm.matrix(), options);
    std::size_t compared = 0;
    for (std::size_t l = 0; l < ticks; ++l) {
      const auto from_batch = batch.observe(y.sample(l));
      const auto from_streaming = streaming.observe(y.sample(l));
      ASSERT_EQ(from_batch.has_value(), from_streaming.has_value());
      if (!from_batch) continue;
      ++compared;
      EXPECT_LE(linalg::max_abs_diff(from_batch->loss, from_streaming->loss),
                1e-10)
          << "tick " << l;
      EXPECT_LE(linalg::max_abs_diff(batch.variances().v,
                                     streaming.variances().v),
                1e-10)
          << "tick " << l;
    }
    EXPECT_EQ(compared, ticks - m);
  }
}

// Regression (satellite): with relearn_every > 1 every snapshot must still
// enter the window, so a delayed relearn sees the full intermediate
// history.  Pinned by comparing each relearn tick against a fresh Lia
// trained on exactly the preceding m snapshots.
TEST(LiaMonitor, DelayedRelearnSeesAllIntermediateSnapshots) {
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  stats::Rng rng(311);
  const auto v = losstomo::testing::random_variances(rrm.link_count(), rng, 0.4);
  const linalg::Vector mu(rrm.link_count(), -0.05);
  const std::size_t m = 8;
  const std::size_t relearn_every = 4;
  const std::size_t ticks = m + 3 * relearn_every + 1;
  const auto y =
      losstomo::testing::synthetic_observations(rrm.matrix(), mu, v, ticks, rng);

  const MonitorOptions options{.window = m, .relearn_every = relearn_every};
  for (const bool use_oracle : {false, true}) {
    LiaMonitor monitor(rrm.matrix(), options);
    losstomo::testing::BatchRelearnOracle oracle(rrm.matrix(), options);
    std::size_t since_learn = 0;
    bool trained = false;
    for (std::size_t l = 0; l < ticks; ++l) {
      const auto inference = use_oracle ? oracle.observe(y.sample(l))
                                        : monitor.observe(y.sample(l));
      if (l < m) continue;
      ASSERT_TRUE(inference.has_value());
      const bool relearn_tick =
          !trained || ++since_learn >= relearn_every;
      if (!relearn_tick) continue;
      trained = true;
      since_learn = 0;
      // Expected: variances learned on the m snapshots preceding tick l —
      // including the ones observed since the previous relearn.
      stats::SnapshotMatrix history(rrm.path_count(), m);
      for (std::size_t w = 0; w < m; ++w) {
        const auto src = y.sample(l - m + w);
        std::copy(src.begin(), src.end(), history.sample(w).begin());
      }
      Lia expected(rrm.matrix());
      expected.learn(history);
      const VarianceEstimate& variances =
          use_oracle ? oracle.variances() : monitor.variances();
      EXPECT_LE(linalg::max_abs_diff(variances.v, expected.variances().v),
                1e-10)
          << (use_oracle ? "oracle" : "monitor") << " relearn tick " << l;
      EXPECT_LE(linalg::max_abs_diff(inference->loss,
                                     expected.infer(y.sample(l)).loss),
                1e-10);
    }
  }
}

// Regression (satellite): the monitor (and its inner Lia) own the routing
// matrix, so constructing from a temporary must be safe.  Under ASan the
// old const-reference member turned this into a use-after-free.
TEST(LiaMonitor, OwnsRoutingMatrixAcrossReconstruction) {
  const auto make_matrix = [] {
    const auto net = losstomo::testing::make_two_beacon_network();
    return net::ReducedRoutingMatrix(net.graph, net.paths).matrix();
  };
  std::optional<LiaMonitor> monitor;
  monitor.emplace(make_matrix(), MonitorOptions{.window = 4});
  stats::Rng rng(312);
  const std::size_t nc = monitor->routing().cols();
  const auto v = losstomo::testing::random_variances(nc, rng, 0.5);
  const linalg::Vector mu(nc, -0.05);
  const auto y = losstomo::testing::synthetic_observations(
      monitor->routing(), mu, v, 12, rng);
  // Reconstruct from another temporary mid-run, then keep observing.
  for (std::size_t l = 0; l < 6; ++l) monitor->observe(y.sample(l));
  monitor.emplace(make_matrix(), MonitorOptions{.window = 4});
  std::optional<LossInference> last;
  for (std::size_t l = 0; l < 12; ++l) last = monitor->observe(y.sample(l));
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->loss.size(), nc);
}

// The paper-exact dense QR needs the materialised batch system, which the
// streaming monitor never builds: the configuration is rejected up front
// (Lia::learn still offers it).
TEST(LiaMonitor, DenseQrConfigurationIsRejected) {
  const linalg::SparseBinaryMatrix r(2, {{0}, {1}});
  MonitorOptions options{.window = 3};
  options.lia.variance.method = VarianceMethod::kDenseQr;
  EXPECT_THROW(LiaMonitor(r, options), std::invalid_argument);
  options.accumulator = CovarianceAccumulator::kSharingPairs;
  options.lia.variance.negatives = NegativeCovariancePolicy::kDrop;
  EXPECT_THROW(LiaMonitor(r, options), std::invalid_argument);
}

TEST(LiaMonitor, EndToEndOnSimulator) {
  stats::Rng topo_rng(304);
  const auto tree =
      topology::make_random_tree({.nodes = 150, .max_branching = 8}, topo_rng);
  const net::ReducedRoutingMatrix rrm(tree.graph, topology::tree_paths(tree));
  sim::ScenarioConfig config;
  config.p = 0.1;
  sim::SnapshotSimulator simulator(tree.graph, rrm, config, 305);

  LiaMonitor monitor(rrm.matrix(), {.window = 30});
  stats::RunningStat dr;
  for (std::size_t t = 0; t < 36; ++t) {
    const auto snap = simulator.next();
    const auto inference = monitor.observe(snap.path_log_trans);
    if (!inference) continue;
    const auto acc = locate_congested(inference->loss, snap.link_congested,
                                      config.loss_model.threshold_tl);
    dr.add(acc.dr);
  }
  EXPECT_EQ(dr.count(), 6u);
  EXPECT_GT(dr.mean(), 0.8);
}

}  // namespace
}  // namespace losstomo::core

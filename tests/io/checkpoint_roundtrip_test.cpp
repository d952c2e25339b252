// Checkpoint round-trip property tests, one per serialized component:
// save -> restore into a freshly constructed instance -> the state must be
// EXACTLY the original's.  Two oracles are used throughout: (1) re-saving
// the restored instance must produce byte-identical images, and (2)
// continuing to feed both instances the same stream must produce
// bit-identical outputs — the property the crash drills rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include "core/monitor.hpp"
#include "core/pair_moments.hpp"
#include "core/sharing_pairs.hpp"
#include "core/variance_estimator.hpp"
#include "io/checkpoint.hpp"
#include "io/checkpoint_tags.hpp"
#include "net/routing_matrix.hpp"
#include "sim/probe_sim.hpp"
#include "stats/moments.hpp"
#include "stats/rng.hpp"
#include "stats/streaming.hpp"
#include "test_util.hpp"

namespace losstomo::io {
namespace {

// Image of one component's save_state, for byte-level state comparison.
template <typename T>
std::vector<std::uint8_t> image_of(const T& component) {
  CheckpointWriter writer;
  component.save_state(writer);
  return writer.finish();
}

template <typename T>
void restore_from_image(T& component, std::vector<std::uint8_t> image) {
  auto reader = CheckpointReader::from_bytes(std::move(image));
  component.restore_state(reader);
}

TEST(CheckpointRoundTrip, RngStreamContinuesBitIdentically) {
  stats::Rng original(12345);
  for (int i = 0; i < 7; ++i) (void)original.uniform();
  // An odd number of gaussians leaves the Box-Muller spare cached inside
  // the normal distribution — exactly the state a naive engine-only
  // serialization would lose.
  for (int i = 0; i < 3; ++i) (void)original.gaussian();

  const auto image = image_of(original);
  stats::Rng restored(999);  // deliberately different seed
  restore_from_image(restored, image);
  EXPECT_EQ(image_of(restored), image);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(original.gaussian(), restored.gaussian());
    EXPECT_EQ(original.uniform(), restored.uniform());
  }
}

TEST(CheckpointRoundTrip, RunningStatRoundTrips) {
  stats::RunningStat original;
  for (const double x : {0.25, -3.0, 7.5, 0.125, 2.0}) original.add(x);
  const auto image = image_of(original);
  stats::RunningStat restored;
  restore_from_image(restored, image);
  EXPECT_EQ(restored.count(), original.count());
  EXPECT_EQ(restored.mean(), original.mean());
  EXPECT_EQ(restored.variance(), original.variance());
  EXPECT_EQ(restored.min(), original.min());
  EXPECT_EQ(restored.max(), original.max());
  EXPECT_EQ(image_of(restored), image);
}

// Correlated observation stream over the two-beacon network (6 paths).
std::vector<linalg::Vector> make_stream(std::size_t ticks,
                                        std::uint64_t seed) {
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  stats::Rng rng(seed);
  const auto v =
      losstomo::testing::random_variances(rrm.link_count(), rng, 0.4);
  const linalg::Vector mu(rrm.link_count(), -0.03);
  const auto y = losstomo::testing::synthetic_observations(rrm.matrix(), mu,
                                                           v, ticks, rng);
  std::vector<linalg::Vector> stream;
  for (std::size_t l = 0; l < ticks; ++l) {
    const auto row = y.sample(l);
    stream.emplace_back(row.begin(), row.end());
  }
  return stream;
}

TEST(CheckpointRoundTrip, StreamingMomentsContinuesBitIdentically) {
  const std::size_t dim = 6;
  const std::size_t window = 10;
  const auto stream = make_stream(3 * window, 77);
  stats::StreamingMoments original(dim, {.window = window,
                                         .refresh_every = window + 3});
  // Stop mid-window, mid-refresh-cadence: the awkward phase.
  for (std::size_t l = 0; l < 2 * window + 3; ++l) original.push(stream[l]);

  const auto image = image_of(original);
  stats::StreamingMoments restored(dim, {.window = window,
                                         .refresh_every = window + 3});
  restore_from_image(restored, image);
  EXPECT_EQ(image_of(restored), image);
  for (std::size_t l = 2 * window + 3; l < stream.size(); ++l) {
    original.push(stream[l]);
    restored.push(stream[l]);
  }
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      EXPECT_EQ(original.covariance(i, j), restored.covariance(i, j))
          << i << "," << j;
    }
  }
}

TEST(CheckpointRoundTrip, StreamingMomentsRejectsDimensionMismatch) {
  stats::StreamingMoments original(6, {.window = 8});
  const auto image = image_of(original);
  stats::StreamingMoments other_dim(7, {.window = 8});
  try {
    restore_from_image(other_dim, image);
    FAIL() << "accepted a checkpoint of different dimension";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kMismatch);
  }
  stats::StreamingMoments other_window(6, {.window = 9});
  EXPECT_THROW(restore_from_image(other_window, image), CheckpointError);
}

// Ring sections cut short or inconsistent are refused with a typed error,
// and the target ring keeps its own state.
TEST(CheckpointRoundTrip, SnapshotRingRejectsDamagedSections) {
  const std::size_t dim = 6;
  const stats::StreamingMomentsOptions options{.window = 8};
  const auto stream = make_stream(12, 61);
  enum class Damage { kAfterShape, kAfterLedger, kShortRing };
  for (const Damage damage :
       {Damage::kAfterShape, Damage::kAfterLedger, Damage::kShortRing}) {
    CheckpointWriter writer;
    writer.begin_section(tags::kSnapshotRing);
    writer.usize(dim);
    writer.usize(options.window);
    if (damage != Damage::kAfterShape) {
      stats::PathChurnLedger(dim).save_state(writer);
    }
    if (damage == Damage::kShortRing) {
      writer.doubles(std::vector<double>(dim, 0.5));  // one row, not eight
      for (int k = 0; k < 5; ++k) writer.usize(0);  // cursors, counters
      writer.doubles(std::vector<double>(dim, 0.0));  // means
    }
    writer.end_section();

    stats::SnapshotRing target(dim, options);
    for (const auto& y : stream) target.push(y);
    const auto before = image_of(target);
    try {
      restore_from_image(target, writer.finish());
      FAIL() << "accepted a damaged ring section";
    } catch (const CheckpointError& e) {
      EXPECT_TRUE(e.kind() == CheckpointErrorKind::kTruncated ||
                  e.kind() == CheckpointErrorKind::kCorrupt)
          << e.what();
    }
    EXPECT_EQ(image_of(target), before);
  }
  // A ring of another shape is a mismatch, not damage.
  stats::SnapshotRing other(dim + 1, options);
  try {
    restore_from_image(other, image_of(stats::SnapshotRing(dim, options)));
    FAIL() << "accepted a ring of another dimension";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kMismatch);
  }
}

TEST(CheckpointRoundTrip, SharingPairStoreAndPairMomentsRoundTrip) {
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  const std::size_t np = rrm.matrix().rows();
  const std::size_t window = 10;
  auto store = std::make_shared<core::SharingPairStore>(
      core::SharingPairStore::build(rrm.matrix()));
  core::PairMoments original(store, np, {.window = window});
  const auto stream = make_stream(3 * window, 88);
  for (std::size_t l = 0; l < 2 * window + 1; ++l) original.push(stream[l]);

  CheckpointWriter writer;
  store->save_state(writer);
  original.save_state(writer);
  auto image = writer.finish();

  auto reader = CheckpointReader::from_bytes(image);
  auto restored_store = std::make_shared<core::SharingPairStore>();
  restored_store->restore_state(reader);
  EXPECT_EQ(restored_store->path_count(), store->path_count());
  EXPECT_EQ(restored_store->pair_count(), store->pair_count());
  core::PairMoments restored(restored_store, np, {.window = window});
  restored.restore_state(reader);

  CheckpointWriter rewriter;
  restored_store->save_state(rewriter);
  restored.save_state(rewriter);
  EXPECT_EQ(rewriter.finish(), image);

  for (std::size_t l = 2 * window + 1; l < stream.size(); ++l) {
    original.push(stream[l]);
    restored.push(stream[l]);
  }
  store->for_pairs(
      0, store->pair_count(),
      [&](std::size_t, std::uint32_t i, std::uint32_t j,
          std::span<const std::uint32_t>) {
        EXPECT_EQ(original.covariance(i, j), restored.covariance(i, j));
      });
}

TEST(CheckpointRoundTrip, StreamingNormalEquationsKeepFactorAndCounters) {
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  core::VarianceOptions options;
  options.negatives = core::NegativeCovariancePolicy::kDrop;
  const std::size_t window = 10;
  const auto stream = make_stream(4 * window, 99);

  stats::StreamingMoments source(rrm.matrix().rows(), {.window = window});
  core::StreamingNormalEquations original(rrm.matrix(), options);
  for (std::size_t l = 0; l < 2 * window + 5; ++l) {
    source.push(stream[l]);
    if (l + 1 >= window) {
      original.refresh(source);
      (void)original.solve();
    }
  }
  const auto counters_before = original.refactorizations();

  CheckpointWriter writer;
  source.save_state(writer);
  original.save_state(writer, /*store_external=*/false);
  auto image = writer.finish();

  auto reader = CheckpointReader::from_bytes(image);
  stats::StreamingMoments restored_source(rrm.matrix().rows(),
                                          {.window = window});
  restored_source.restore_state(reader);
  core::StreamingNormalEquations restored(rrm.matrix(), options);
  restored.restore_state(reader, nullptr);
  EXPECT_EQ(restored.refactorizations(), counters_before);
  EXPECT_EQ(restored.pending_flips(), original.pending_flips());
  // G is not in the image: the restore rebuilt it from the kept pairs.
  EXPECT_EQ(restored.system().g.data(), original.system().g.data());

  CheckpointWriter rewriter;
  restored_source.save_state(rewriter);
  restored.save_state(rewriter, /*store_external=*/false);
  EXPECT_EQ(rewriter.finish(), image);

  // Continue both: refreshes and solves must stay bit-identical, with the
  // same factorization count.
  for (std::size_t l = 2 * window + 5; l < stream.size(); ++l) {
    source.push(stream[l]);
    restored_source.push(stream[l]);
    const auto a = original.refresh(source);
    const auto b = restored.refresh(restored_source);
    EXPECT_EQ(a.used, b.used);
    const auto va = original.solve();
    const auto vb = restored.solve();
    ASSERT_EQ(va.v.size(), vb.v.size());
    for (std::size_t k = 0; k < va.v.size(); ++k) {
      EXPECT_EQ(va.v[k], vb.v[k]) << "link " << k << " tick " << l;
    }
  }
  EXPECT_EQ(restored.refactorizations(), original.refactorizations());
}

// G is rebuilt from the kept-pair flags, so a flag other than 0 or 1
// (which the flip path would toggle into "kept") is corrupt.  The image is
// written field by field in the layout save_state uses for a drop-negative
// instance with an embedded store; the same image with a valid flag
// restores.
TEST(CheckpointRoundTrip, StreamingNormalEquationsRejectBadKeptPairFlag) {
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  const auto& r = rrm.matrix();
  core::VarianceOptions options;
  options.negatives = core::NegativeCovariancePolicy::kDrop;
  const auto store = core::SharingPairStore::build(r);
  for (const std::uint8_t flag : {1, 2}) {
    CheckpointWriter writer;
    writer.begin_section(tags::kNormalEquations);
    writer.usize(r.rows());
    writer.usize(r.cols());
    writer.boolean(true);   // drop-negative
    writer.usize(0);        // factorizations
    writer.usize(0);        // links grown
    writer.boolean(true);   // has a pair store...
    writer.boolean(false);  // ...embedded in this section
    store.save_state(writer);
    std::vector<std::uint8_t> kept(store.pair_count(), 1);
    kept.back() = flag;
    writer.u8s(kept);
    writer.usize(0);  // pending flips
    writer.end_section();
    auto reader = CheckpointReader::from_bytes(writer.finish());
    core::StreamingNormalEquations target(r, options);
    if (flag == 1) {
      target.restore_state(reader, nullptr);
      EXPECT_EQ(target.links_pinned(), 0u);  // every pair kept
      continue;
    }
    try {
      target.restore_state(reader, nullptr);
      FAIL() << "accepted a kept-pair flag of " << int{flag};
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.kind(), CheckpointErrorKind::kCorrupt);
    }
  }
}

TEST(CheckpointRoundTrip, SnapshotSimulatorContinuesBitIdentically) {
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  sim::ScenarioConfig config;
  config.probes_per_snapshot = 200;
  config.p = 0.3;
  sim::SnapshotSimulator original(net.graph, rrm, config, 4242);
  for (int i = 0; i < 5; ++i) (void)original.next();
  original.force_link_loss(0, 0.4);  // forced state must survive too
  (void)original.next();

  const auto image = image_of(original);
  sim::SnapshotSimulator restored(net.graph, rrm, config, 4242);
  restore_from_image(restored, image);
  EXPECT_EQ(image_of(restored), image);
  for (int i = 0; i < 8; ++i) {
    const auto a = original.next();
    const auto b = restored.next();
    ASSERT_EQ(a.path_log_trans.size(), b.path_log_trans.size());
    for (std::size_t p = 0; p < a.path_log_trans.size(); ++p) {
      EXPECT_EQ(a.path_log_trans[p], b.path_log_trans[p]);
    }
    for (std::size_t k = 0; k < a.link_true_loss.size(); ++k) {
      EXPECT_EQ(a.link_true_loss[k], b.link_true_loss[k]);
    }
  }
}

core::MonitorOptions monitor_options(core::CovarianceAccumulator acc) {
  core::MonitorOptions options;
  options.window = 10;
  options.accumulator = acc;
  options.lia.variance.negatives = core::NegativeCovariancePolicy::kDrop;
  return options;
}

void monitor_roundtrip_case(core::CovarianceAccumulator acc) {
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  const auto options = monitor_options(acc);
  const auto stream = make_stream(4 * options.window, 314);

  core::LiaMonitor original(rrm.matrix(), options);
  for (std::size_t l = 0; l < 2 * options.window + 4; ++l) {
    (void)original.observe(stream[l]);
  }
  const auto image = image_of(original);
  core::LiaMonitor restored(rrm.matrix(), options);
  restore_from_image(restored, image);
  EXPECT_EQ(image_of(restored), image);
  EXPECT_EQ(restored.streaming_equations().system().g.data(),
            original.streaming_equations().system().g.data());

  for (std::size_t l = 2 * options.window + 4; l < stream.size(); ++l) {
    const auto a = original.observe(stream[l]);
    const auto b = restored.observe(stream[l]);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) continue;
    ASSERT_EQ(a->loss.size(), b->loss.size());
    for (std::size_t k = 0; k < a->loss.size(); ++k) {
      EXPECT_EQ(a->loss[k], b->loss[k]) << "link " << k << " tick " << l;
    }
  }
  const auto& ea = original.streaming_equations();
  const auto& eb = restored.streaming_equations();
  EXPECT_EQ(ea.refactorizations(), eb.refactorizations());
  EXPECT_EQ(ea.links_pinned(), eb.links_pinned());
}

TEST(CheckpointRoundTrip, MonitorStreamingDenseContinuesBitIdentically) {
  monitor_roundtrip_case(core::CovarianceAccumulator::kDense);
}

TEST(CheckpointRoundTrip, MonitorSharingPairsContinuesBitIdentically) {
  monitor_roundtrip_case(core::CovarianceAccumulator::kSharingPairs);
}

core::MonitorOptions keep_all_options() {
  core::MonitorOptions options;
  options.window = 10;
  options.refresh_every = 13;  // drift refreshes on both sides of the save
  options.lia.variance.negatives = core::NegativeCovariancePolicy::kKeep;
  return options;
}

TEST(CheckpointRoundTrip, MonitorKeepAllRingContinuesBitIdentically) {
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  const auto options = keep_all_options();
  const auto stream = make_stream(5 * options.window, 271);

  core::LiaMonitor original(rrm.matrix(), options);
  for (std::size_t l = 0; l < 2 * options.window + 4; ++l) {
    (void)original.observe(stream[l]);
  }
  const auto image = image_of(original);
  core::LiaMonitor restored(rrm.matrix(), options);
  restore_from_image(restored, image);
  EXPECT_EQ(image_of(restored), image);
  EXPECT_EQ(restored.streaming_equations().system().g.data(),
            original.streaming_equations().system().g.data());

  for (std::size_t l = 2 * options.window + 4; l < stream.size(); ++l) {
    const auto a = original.observe(stream[l]);
    const auto b = restored.observe(stream[l]);
    ASSERT_TRUE(a.has_value() && b.has_value()) << "tick " << l;
    EXPECT_EQ(a->loss, b->loss) << "tick " << l;
    EXPECT_EQ(original.variances().v, restored.variances().v) << "tick " << l;
  }
  EXPECT_EQ(image_of(restored), image_of(original));
  EXPECT_EQ(restored.streaming_equations().refactorizations(),
            original.streaming_equations().refactorizations());
}

TEST(CheckpointRoundTrip, MonitorKeepAllImageRejectedByDropNegative) {
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  const auto options = keep_all_options();
  const auto stream = make_stream(2 * options.window, 556);
  core::LiaMonitor keep_all(rrm.matrix(), options);
  for (const auto& y : stream) (void)keep_all.observe(y);
  const auto image = image_of(keep_all);

  for (const auto acc : {core::CovarianceAccumulator::kDense,
                         core::CovarianceAccumulator::kSharingPairs}) {
    auto other = monitor_options(acc);
    other.refresh_every = options.refresh_every;
    core::LiaMonitor target(rrm.matrix(), other);
    try {
      restore_from_image(target, image);
      FAIL() << "a drop-negative monitor accepted a keep-all image";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.kind(), CheckpointErrorKind::kMismatch);
    }
    for (const auto& y : stream) (void)target.observe(y);
    EXPECT_TRUE(target.warmed_up());
  }
}

TEST(CheckpointRoundTrip, MonitorRejectsConfigMismatchIntact) {
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  const auto options = monitor_options(core::CovarianceAccumulator::kDense);
  const auto stream = make_stream(2 * options.window, 555);
  core::LiaMonitor original(rrm.matrix(), options);
  for (const auto& y : stream) (void)original.observe(y);
  const auto image = image_of(original);

  // A different window, and the pair-indexed accumulator where the image
  // holds the dense one: both are part of the configuration fingerprint.
  auto other_window = options;
  other_window.window = options.window + 1;
  const auto other_accumulator =
      monitor_options(core::CovarianceAccumulator::kSharingPairs);
  for (const auto& other : {other_window, other_accumulator}) {
    core::LiaMonitor target(rrm.matrix(), other);
    try {
      restore_from_image(target, image);
      FAIL() << "accepted a checkpoint from a different configuration";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.kind(), CheckpointErrorKind::kMismatch);
    }
    // The failed restore must leave the target fully usable (no partial
    // state): it still warms up and diagnoses on its own configuration.
    for (const auto& y : stream) (void)target.observe(y);
    EXPECT_TRUE(target.warmed_up());
  }
}

// Hostile images: seeded mutations of 1-3 payload bytes, re-sealed with a
// valid CRC so that they pass the container checks and reach the section
// parsers.  Each image must either be rejected with a typed CheckpointError
// or restore into a monitor that keeps diagnosing: six further ticks, no
// exception, every loss in [0, 1].
void expect_mutations_fail_typed_or_resume(const core::MonitorOptions& options,
                                           std::uint64_t seed) {
  const auto net = losstomo::testing::make_two_beacon_network();
  const net::ReducedRoutingMatrix rrm(net.graph, net.paths);
  constexpr std::size_t kTicks = 6;
  const std::size_t warm = 3 * options.window;
  const auto stream = make_stream(warm + kTicks, seed);
  core::LiaMonitor original(rrm.matrix(), options);
  for (std::size_t l = 0; l < warm; ++l) (void)original.observe(stream[l]);
  const auto image = image_of(original);

  constexpr std::size_t kHeader = 20;  // magic + version + size + crc
  constexpr std::size_t kCrcOffset = 16;
  stats::Rng rng(seed);
  std::size_t rejected = 0;
  std::size_t resumed = 0;
  for (std::size_t trial = 0; trial < 3000; ++trial) {
    auto mutated = image;
    const std::size_t bytes = 1 + rng.index(3);
    for (std::size_t b = 0; b < bytes; ++b) {
      const std::size_t at = kHeader + rng.index(image.size() - kHeader);
      mutated[at] ^= static_cast<std::uint8_t>(1 + rng.index(255));
    }
    const std::uint32_t crc =
        crc32(std::span<const std::uint8_t>(mutated).subspan(kHeader));
    for (std::size_t b = 0; b < 4; ++b) {
      mutated[kCrcOffset + b] = static_cast<std::uint8_t>(crc >> (8 * b));
    }
    core::LiaMonitor target(rrm.matrix(), options);
    try {
      restore_from_image(target, std::move(mutated));
    } catch (const CheckpointError&) {
      ++rejected;
      continue;
    }
    try {
      for (std::size_t t = 0; t < kTicks; ++t) {
        const auto inference = target.observe(stream[warm + t]);
        ASSERT_TRUE(inference.has_value()) << "trial " << trial;
        for (const double loss : inference->loss) {
          ASSERT_TRUE(loss >= 0.0 && loss <= 1.0)
              << "trial " << trial << " tick " << t << " loss " << loss;
        }
      }
    } catch (const std::exception& e) {
      FAIL() << "trial " << trial << " restored, then threw: " << e.what();
    }
    ++resumed;
  }
  // Both outcomes occur: the mutations reach fields the parsers reject and
  // fields they accept.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(resumed, 0u);
}

TEST(CheckpointRoundTrip, ResealedMutationsFailTypedOrResume) {
  {
    SCOPED_TRACE("dense");
    expect_mutations_fail_typed_or_resume(
        monitor_options(core::CovarianceAccumulator::kDense), 7001);
  }
  {
    SCOPED_TRACE("pairs");
    expect_mutations_fail_typed_or_resume(
        monitor_options(core::CovarianceAccumulator::kSharingPairs), 7002);
  }
  {
    SCOPED_TRACE("keep-all");
    expect_mutations_fail_typed_or_resume(keep_all_options(), 7003);
  }
}

}  // namespace
}  // namespace losstomo::io

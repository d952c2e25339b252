// Parity: the blocked/parallel Phase-1 build must match the scalar
// references of tests/reference_estimator.hpp — the pairwise accumulation
// to <= 1e-12, the closed form exactly, the dense-QR packed covariances to
// <= 1e-12 with the same drop decisions — at 1, 2, and 8 threads, and every
// backend x negative-covariance policy estimate must be bit-identical
// across those thread counts.  This is the guarantee that lets the kernel
// layer replace the seed's per-pair scalar loops without changing any
// experiment output.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/augmented_matrix.hpp"
#include "core/variance_estimator.hpp"
#include "reference_estimator.hpp"
#include "test_util.hpp"

namespace losstomo::core {
namespace {

using losstomo::testing::make_random_mesh;
using losstomo::testing::random_variances;
using losstomo::testing::synthetic_observations;

struct Problem {
  topology::Topology topo;
  std::unique_ptr<net::ReducedRoutingMatrix> rrm;
  stats::SnapshotMatrix y{1, 1};
};

// A mesh large enough that every blocked kernel engages (path count well
// past one covariance tile) while dense QR stays affordable.
Problem make_problem(std::uint64_t seed) {
  stats::Rng rng(seed);
  Problem p;
  auto mesh = make_random_mesh(220, 16, rng);
  p.topo = std::move(mesh.topo);
  p.rrm = std::make_unique<net::ReducedRoutingMatrix>(p.topo.graph, mesh.paths);
  const auto v_true = random_variances(p.rrm->link_count(), rng, 0.25);
  const linalg::Vector mu(p.rrm->link_count(), -0.02);
  p.y = synthetic_observations(p.rrm->matrix(), mu, v_true, 96, rng);
  return p;
}

std::string combo_name(VarianceMethod method, NegativeCovariancePolicy policy,
                       std::size_t threads) {
  std::string name;
  switch (method) {
    case VarianceMethod::kAuto: name = "auto"; break;
    case VarianceMethod::kDenseQr: name = "dense-qr"; break;
    case VarianceMethod::kNormal: name = "normal"; break;
    case VarianceMethod::kNnls: name = "nnls"; break;
  }
  name += policy == NegativeCovariancePolicy::kDrop ? "/drop" : "/keep";
  return name + "/threads=" + std::to_string(threads);
}

TEST(VarianceEstimatorParity, BlockedMatchesScalarReferenceEverywhere) {
  const auto p = make_problem(2024);
  ASSERT_GE(p.rrm->path_count(), 100u);
  const auto& r = p.rrm->matrix();
  const stats::CenteredSnapshots centered(p.y);
  const std::size_t thread_counts[] = {1, 2, 8};

  // The normal-equation build, per negative-covariance policy.
  const auto pairwise = losstomo::testing::accumulate_pairwise_reference(
      r, centered, /*drop_negative=*/true);
  const auto closed_form =
      losstomo::testing::accumulate_closed_form_reference(r, centered);
  for (const auto threads : thread_counts) {
    VarianceOptions opts;
    opts.threads = threads;
    opts.negatives = NegativeCovariancePolicy::kDrop;
    const auto drop = build_normal_equations(r, p.y, opts);
    const auto name = "threads=" + std::to_string(threads);
    // Same equations enter the least squares (G counts them exactly)...
    EXPECT_EQ(drop.used, pairwise.used) << name;
    EXPECT_EQ(drop.dropped, pairwise.dropped) << name;
    EXPECT_EQ(drop.g.data(), pairwise.g.data()) << name;
    // ...and the rhs agrees to last-ulps rounding.
    EXPECT_LE(linalg::max_abs_diff(drop.h, pairwise.h), 1e-12) << name;

    opts.negatives = NegativeCovariancePolicy::kKeep;
    const auto keep = build_normal_equations(r, p.y, opts);
    EXPECT_EQ(keep.used, closed_form.used) << name;
    EXPECT_EQ(keep.g.data(), closed_form.g.data()) << name;
    EXPECT_EQ(keep.h, closed_form.h) << name;

    // The dense-QR backend's packed covariances: same values to last-ulps
    // rounding and the same drop-negative decisions.
    const auto reference_sigma =
        losstomo::testing::packed_covariances(centered);
    const auto sigma =
        packed_covariances({stats::covariance_matrix(centered, threads), 1.0});
    ASSERT_EQ(sigma.size(), reference_sigma.size()) << name;
    EXPECT_LE(linalg::max_abs_diff(sigma, reference_sigma), 1e-12) << name;
    for (std::size_t row = 0; row < sigma.size(); ++row) {
      ASSERT_EQ(sigma[row] < 0.0, reference_sigma[row] < 0.0)
          << name << " row " << row;
    }
  }

  // The optimized path itself is bit-identical at any thread count.
  const VarianceMethod methods[] = {VarianceMethod::kDenseQr,
                                    VarianceMethod::kNormal,
                                    VarianceMethod::kNnls};
  const NegativeCovariancePolicy policies[] = {NegativeCovariancePolicy::kDrop,
                                               NegativeCovariancePolicy::kKeep};
  for (const auto method : methods) {
    for (const auto policy : policies) {
      VarianceEstimate first;
      for (const auto threads : thread_counts) {
        VarianceOptions opts;
        opts.method = method;
        opts.negatives = policy;
        opts.threads = threads;
        const auto blocked = estimate_link_variances(r, p.y, opts);
        const auto name = combo_name(method, policy, threads);
        if (first.v.empty()) {
          first = blocked;
          continue;
        }
        EXPECT_EQ(blocked.method, first.method) << name;
        EXPECT_EQ(blocked.equations_used, first.equations_used) << name;
        EXPECT_EQ(blocked.equations_dropped, first.equations_dropped) << name;
        EXPECT_EQ(blocked.v, first.v) << name;
      }
    }
  }
}

}  // namespace
}  // namespace losstomo::core

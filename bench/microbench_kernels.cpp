// Microbenchmark of the compute-kernel layer: scalar (seed) vs blocked vs
// blocked+parallel for the Phase-1 covariance-system build and the dense
// gram/GEMM kernels.  This is the perf-trajectory harness for the kernel
// work: run with `--json BENCH_kernels.json` and diff the recorded numbers
// across PRs.
//
//   build/bench_microbench_kernels [instance=tree|mesh] [nodes=1300] [m=384]
//                                  [hosts=32] [reps=3] [--json <path>]
//
// The headline figures are normal_build_speedup_1t (the seed's per-pair
// scalar accumulation vs the blocked single-thread path; target >= 5x on a
// >= 500-path instance) and normal_build_parallel_scaling (blocked 1-thread
// vs all-threads).
#include <algorithm>
#include <cmath>

#include "common.hpp"
#include "core/variance_estimator.hpp"
#include "linalg/kernels.hpp"
#include "reference_estimator.hpp"
#include "util/parallel.hpp"

namespace {

using namespace losstomo;

// Best-of-reps wall time of fn(); the returned checksum feeds a sink so the
// optimizer cannot elide any rep.
template <typename Fn>
double time_best(std::size_t reps, double& sink, Fn&& fn) {
  double best = 1e300;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    util::Timer timer;
    sink += fn();
    best = std::min(best, timer.seconds());
  }
  return best;
}

double checksum(const linalg::Matrix& m) {
  double acc = 0.0;
  for (const double v : m.data()) acc += v;
  return acc;
}

// The seed's scalar covariance pass: one O(m) inner loop per path pair
// (stats::CenteredSnapshots::covariance), exactly what accumulate_pairwise
// ran before the blocked kernels.
double scalar_packed_covariances(const stats::CenteredSnapshots& y) {
  double acc = 0.0;
  for (std::size_t i = 0; i < y.dim(); ++i) {
    for (std::size_t j = i; j < y.dim(); ++j) acc += y.covariance(i, j);
  }
  return acc;
}

// The seed's naive gram triple loop (pre-kernel Matrix::gram).
double naive_gram(const linalg::Matrix& a, linalg::Matrix& g) {
  g = linalg::Matrix(a.cols(), a.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto rr = a.row(r);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double v = rr[i];
      if (v == 0.0) continue;
      for (std::size_t j = i; j < a.cols(); ++j) g(i, j) += v * rr[j];
    }
  }
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
  }
  return checksum(g);
}

}  // namespace

namespace {

// Synthetic Gaussian observations through the routing matrix, so timings
// depend only on problem shape, not simulator state.
stats::SnapshotMatrix synthetic_snapshots(const linalg::SparseBinaryMatrix& r,
                                          std::size_t m, stats::Rng& rng) {
  stats::SnapshotMatrix y(r.rows(), m);
  linalg::Vector x(r.cols());
  for (std::size_t l = 0; l < m; ++l) {
    for (std::size_t k = 0; k < r.cols(); ++k) {
      x[k] = -0.02 + 0.03 * rng.gaussian();
    }
    const auto yl = r.multiply(x);
    std::copy(yl.begin(), yl.end(), y.sample(l).begin());
  }
  return y;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto nodes = args.get_size("nodes", 1300);
  const auto hosts = args.get_size("hosts", 32);
  const auto instance = args.get_string("instance", "tree");
  const auto m = args.get_size("m", 384);
  const auto reps = args.get_size("reps", 3);
  const auto json_path = args.get_string("json", "");
  args.finish();
  const std::size_t threads = util::default_threads();

  // A >= 500-path instance.  The default single-beacon-style tree has dense
  // pair sharing (most path pairs share links near the root), which is the
  // regime where the seed's per-pair O(m) covariance loop dominated;
  // `instance=mesh` gives a sparse-sharing Waxman overlay where the seed's
  // skip already avoided most covariances (the kernels must not regress
  // there).
  stats::Rng rng(41);
  auto inst = instance == "mesh"
                  ? bench::from_topology(
                        topology::make_waxman(
                            {.nodes = nodes, .links_per_node = 2}, rng),
                        "Waxman", hosts)
                  : bench::make_tree_instance(nodes, 8, 41);
  const auto& r = inst.matrix().matrix();
  const std::size_t np = r.rows();
  const std::size_t nc = r.cols();

  const stats::SnapshotMatrix y = synthetic_snapshots(r, m, rng);
  const stats::CenteredSnapshots centered(y);

  std::cout << "microbench_kernels: instance=" << inst.name << " np=" << np
            << " links=" << nc << " m=" << m << " threads=" << threads
            << "\n\n";

  double sink = 0.0;

  // --- covariance matrix S = Yc^T Yc / (m-1) -------------------------------
  const double cov_scalar = time_best(
      reps, sink, [&] { return scalar_packed_covariances(centered); });
  const double cov_blocked = time_best(reps, sink, [&] {
    return checksum(stats::covariance_matrix(centered, 1));
  });
  const double cov_parallel = time_best(reps, sink, [&] {
    return checksum(stats::covariance_matrix(centered, threads));
  });

  // --- full normal-equation build (covariance system, drop-negative) ------
  // The scalar baseline is the seed's pairwise loop
  // (tests/reference_estimator.hpp); like build_normal_equations it centres
  // the snapshots inside the timed region.
  core::VarianceOptions blocked_opts;
  blocked_opts.negatives = core::NegativeCovariancePolicy::kDrop;
  blocked_opts.threads = 1;
  core::VarianceOptions parallel_opts = blocked_opts;
  parallel_opts.threads = threads;

  const double build_scalar = time_best(reps, sink, [&] {
    const stats::CenteredSnapshots snapshots(y);
    return checksum(
        testing::accumulate_pairwise_reference(r, snapshots, true).g);
  });
  const double build_blocked = time_best(reps, sink, [&] {
    return checksum(core::build_normal_equations(r, y, blocked_opts).g);
  });
  const double build_parallel = time_best(reps, sink, [&] {
    return checksum(core::build_normal_equations(r, y, parallel_opts).g);
  });

  // --- dense gram / GEMM kernels ------------------------------------------
  const std::size_t gn = 512;
  linalg::Matrix dense(gn, gn);
  for (auto& v : dense.data()) v = rng.gaussian();
  linalg::Matrix scratch;
  const double gram_naive_s =
      time_best(reps, sink, [&] { return naive_gram(dense, scratch); });
  const double gram_blocked_s = time_best(
      reps, sink, [&] { return checksum(linalg::blocked_gram(dense, 1.0, 1)); });
  const double gram_parallel_s = time_best(reps, sink, [&] {
    return checksum(linalg::blocked_gram(dense, 1.0, threads));
  });

  util::Table table({"kernel", "scalar s", "blocked 1t s", "parallel s",
                     "speedup 1t", "scaling"});
  const auto add = [&](const std::string& name, double scalar, double blocked,
                       double parallel) {
    table.add_row({name, util::Table::num(scalar, 4),
                   util::Table::num(blocked, 4), util::Table::num(parallel, 4),
                   util::Table::num(scalar / blocked, 2),
                   util::Table::num(blocked / parallel, 2)});
  };
  add("covariance S", cov_scalar, cov_blocked, cov_parallel);
  add("normal-eq build", build_scalar, build_blocked, build_parallel);
  add("gram 512^2", gram_naive_s, gram_blocked_s, gram_parallel_s);
  table.print(std::cout);
  std::cout << "\n(sink " << sink << ")\n";

  bench::JsonReport report;
  report.set("bench", std::string("microbench_kernels"));
  report.set("instance", inst.name);
  report.set("np", np);
  report.set("nc", nc);
  report.set("m", m);
  report.set("threads", threads);
  report.set("cov_scalar_seconds", cov_scalar);
  report.set("cov_blocked_1t_seconds", cov_blocked);
  report.set("cov_parallel_seconds", cov_parallel);
  report.set("cov_speedup_1t", cov_scalar / cov_blocked);
  report.set("normal_build_scalar_seconds", build_scalar);
  report.set("normal_build_blocked_1t_seconds", build_blocked);
  report.set("normal_build_parallel_seconds", build_parallel);
  report.set("normal_build_speedup_1t", build_scalar / build_blocked);
  report.set("normal_build_parallel_scaling", build_blocked / build_parallel);
  report.set("gram_naive_seconds", gram_naive_s);
  report.set("gram_blocked_1t_seconds", gram_blocked_s);
  report.set("gram_parallel_seconds", gram_parallel_s);
  report.set("gram_speedup_1t", gram_naive_s / gram_blocked_s);
  report.write(json_path);
  return 0;
}

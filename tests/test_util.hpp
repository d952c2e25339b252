// Shared builders for the test suite: the paper's worked examples and
// random problem generators, plus the per-test scratch-file helper.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "net/graph.hpp"
#include "net/path.hpp"
#include "net/routing_matrix.hpp"
#include "stats/covariance_source.hpp"
#include "stats/moments.hpp"
#include "stats/rng.hpp"
#include "topology/generators.hpp"
#include "topology/routing.hpp"

namespace losstomo::testing {

/// Scratch-file path unique to the calling gtest test.  Parallel ctest
/// processes must not share scratch files: a fixed /tmp path racing
/// between two tests corrupts both, so the suite and test name are
/// embedded in the filename.  `name` distinguishes multiple files within
/// one test.
inline std::string scratch_file(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string unique = ::testing::TempDir() + "losstomo_";
  if (info != nullptr) {
    unique += std::string(info->test_suite_name()) + "_" +
              std::string(info->name()) + "_";
  }
  return unique + name;
}

/// The dense S a covariance view stands for, entry by entry:
/// S_ij = c_ij * scale.
inline linalg::Matrix materialize(stats::CovarianceView view) {
  linalg::Matrix s(view.dim(), view.dim());
  for (std::size_t i = 0; i < view.dim(); ++i) {
    for (std::size_t j = 0; j < view.dim(); ++j) s(i, j) = view(i, j);
  }
  return s;
}

/// The paper's Figure 1 network: one beacon B1, three destinations, five
/// links; link e1 shared by all paths.
///   P1 = {e1, e2}, P2 = {e1, e3, e4}, P3 = {e1, e3, e5}
/// Its reduced routing matrix is printed in §4 of the paper:
///   R = [1 1 0 0 0; 1 0 1 1 0; 1 0 1 0 1]
struct Fig1Network {
  net::Graph graph;
  std::vector<net::Path> paths;
  net::NodeId beacon;
  std::vector<net::NodeId> destinations;
};

inline Fig1Network make_fig1_network() {
  Fig1Network net;
  // Nodes: B1=0, v=1, w=2, D1=3, D2=4, D3=5.
  net.graph.add_nodes(6);
  net.beacon = 0;
  const auto e1 = net.graph.add_edge(0, 1);  // B1 -> v   (shared)
  const auto e2 = net.graph.add_edge(1, 3);  // v  -> D1
  const auto e3 = net.graph.add_edge(1, 2);  // v  -> w   (shared by P2,P3)
  const auto e4 = net.graph.add_edge(2, 4);  // w  -> D2
  const auto e5 = net.graph.add_edge(2, 5);  // w  -> D3
  net.paths = {
      {.source = 0, .destination = 3, .edges = {e1, e2}},
      {.source = 0, .destination = 4, .edges = {e1, e3, e4}},
      {.source = 0, .destination = 5, .edges = {e1, e3, e5}},
  };
  net.destinations = {3, 4, 5};
  return net;
}

/// A two-beacon variant of the paper's Figure 2: beacons B1, B2 each probe
/// destinations D1..D3 through a shared interior.  rank(R) < nc but the
/// augmented matrix has full column rank (Theorem 1).
struct TwoBeaconNetwork {
  net::Graph graph;
  std::vector<net::Path> paths;
};

inline TwoBeaconNetwork make_two_beacon_network() {
  TwoBeaconNetwork net;
  // Nodes: B1=0, B2=1, u=2, v=3, D1=4, D2=5, D3=6.
  net.graph.add_nodes(7);
  const auto e1 = net.graph.add_edge(0, 2);  // B1 -> u
  const auto e2 = net.graph.add_edge(1, 2);  // B2 -> u
  const auto e3 = net.graph.add_edge(2, 4);  // u  -> D1
  const auto e4 = net.graph.add_edge(2, 3);  // u  -> v
  const auto e5 = net.graph.add_edge(3, 5);  // v  -> D2
  const auto e6 = net.graph.add_edge(3, 6);  // v  -> D3
  for (const net::NodeId b : {0u, 1u}) {
    const auto first = (b == 0) ? e1 : e2;
    net.paths.push_back({.source = b, .destination = 4, .edges = {first, e3}});
    net.paths.push_back({.source = b, .destination = 5, .edges = {first, e4, e5}});
    net.paths.push_back({.source = b, .destination = 6, .edges = {first, e4, e6}});
  }
  return net;
}

/// Random per-link "variances" scaled to look like log-loss variances.
inline linalg::Vector random_variances(std::size_t n, stats::Rng& rng,
                                       double congested_fraction = 0.1) {
  linalg::Vector v(n);
  for (auto& x : v) {
    x = rng.bernoulli(congested_fraction) ? rng.uniform(0.01, 0.1)
                                          : rng.uniform(0.0, 1e-6);
  }
  return v;
}

/// Synthetic observation matrix: draws X ~ N(mu, diag(v)) per snapshot and
/// returns Y = R X.  The exact log-linear model, no probe noise — used to
/// test estimator correctness in isolation.
inline stats::SnapshotMatrix synthetic_observations(
    const linalg::SparseBinaryMatrix& r, std::span<const double> mu,
    std::span<const double> v, std::size_t m, stats::Rng& rng) {
  stats::SnapshotMatrix y(r.rows(), m);
  linalg::Vector x(r.cols());
  for (std::size_t l = 0; l < m; ++l) {
    for (std::size_t k = 0; k < r.cols(); ++k) {
      x[k] = rng.gaussian(mu[k], std::sqrt(v[k]));
    }
    const auto yl = r.multiply(x);
    std::copy(yl.begin(), yl.end(), y.sample(l).begin());
  }
  return y;
}

/// Random multi-beacon mesh + routed, sanitized paths + reduced matrix.
struct RandomMesh {
  topology::Topology topo;
  std::vector<net::Path> paths;
};

inline RandomMesh make_random_mesh(std::size_t nodes, std::size_t hosts,
                                   stats::Rng& rng) {
  RandomMesh mesh;
  mesh.topo = topology::make_waxman(
      {.nodes = nodes, .links_per_node = 2, .alpha = 0.3, .beta = 0.4}, rng);
  const auto host_nodes = topology::pick_low_degree_hosts(mesh.topo.graph, hosts);
  const auto routed =
      topology::route_paths(mesh.topo.graph, host_nodes, host_nodes);
  mesh.paths = routed.paths;
  return mesh;
}

}  // namespace losstomo::testing

#include "reference_estimator.hpp"

#include <vector>

#include "core/augmented_matrix.hpp"

namespace losstomo::testing {

core::NormalEquations accumulate_pairwise_reference(
    const linalg::SparseBinaryMatrix& r, const stats::CenteredSnapshots& y,
    bool drop_negative) {
  const std::size_t np = r.rows();
  const std::size_t nc = r.cols();
  const std::size_t m = y.count();
  core::NormalEquations sys{linalg::Matrix(nc, nc), linalg::Vector(nc, 0.0)};

  std::vector<std::uint32_t> shared;
  for (std::size_t i = 0; i < np; ++i) {
    const auto ri = r.row(i);
    for (std::size_t j = i; j < np; ++j) {
      linalg::intersect_sorted(ri, r.row(j), shared);
      if (shared.empty()) continue;  // all-zero equation carries nothing
      double cov = 0.0;
      for (std::size_t l = 0; l < m; ++l) {
        const auto row = y.sample(l);
        cov += row[i] * row[j];
      }
      cov /= static_cast<double>(m - 1);
      if (drop_negative && cov < 0.0) {
        ++sys.dropped;
        continue;
      }
      ++sys.used;
      for (const auto a : shared) {
        sys.h[a] += cov;
        for (const auto b : shared) sys.g(a, b) += 1.0;
      }
    }
  }
  return sys;
}

core::NormalEquations accumulate_closed_form_reference(
    const linalg::SparseBinaryMatrix& r, const stats::CenteredSnapshots& y) {
  core::NormalEquations sys;
  const linalg::CoTraversalGram gram(r);
  sys.g = gram.map_to_dense([](double n) { return n * (n + 1.0) / 2.0; }, 1);
  sys.used = core::pair_count(r.rows());

  const auto column_paths = r.column_lists();
  const std::size_t nc = column_paths.size();
  const std::size_t m = y.count();
  sys.h.assign(nc, 0.0);
  linalg::Vector path_var(y.dim(), 0.0);
  for (std::size_t l = 0; l < m; ++l) {
    const auto row = y.sample(l);
    for (std::size_t i = 0; i < y.dim(); ++i) path_var[i] += row[i] * row[i];
  }
  for (auto& v : path_var) v /= static_cast<double>(m - 1);
  // Each square is stored before it is summed, so it is rounded on its own
  // whether or not the compiler contracts multiply-adds (the production
  // kernel stores its squares the same way).
  linalg::Vector squares(m);
  for (std::size_t k = 0; k < nc; ++k) {
    const auto& paths = column_paths[k];
    for (std::size_t l = 0; l < m; ++l) {
      const auto row = y.sample(l);
      double s = 0.0;
      for (const auto i : paths) s += row[i];
      squares[l] = s * s;
    }
    double full_sum = 0.0;
    for (const double square : squares) full_sum += square;
    full_sum /= static_cast<double>(m - 1);
    double diag = 0.0;
    for (const auto i : paths) diag += path_var[i];
    sys.h[k] = 0.5 * (full_sum + diag);
  }
  return sys;
}

linalg::Vector packed_covariances(const stats::CenteredSnapshots& y) {
  const std::size_t np = y.dim();
  linalg::Vector sigma(core::pair_count(np), 0.0);
  for (std::size_t i = 0; i < np; ++i) {
    for (std::size_t j = i; j < np; ++j) {
      sigma[core::pair_index(i, j, np)] = y.covariance(i, j);
    }
  }
  return sigma;
}

}  // namespace losstomo::testing

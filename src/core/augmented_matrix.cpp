#include "core/augmented_matrix.hpp"

#include <stdexcept>

#include "util/parallel.hpp"

namespace losstomo::core {

linalg::Matrix build_augmented_matrix(const linalg::SparseBinaryMatrix& r,
                                      std::size_t max_entries,
                                      std::size_t threads) {
  const std::size_t np = r.rows();
  const std::size_t nc = r.cols();
  const std::size_t rows = pair_count(np);
  if (rows * nc > max_entries) {
    throw std::length_error("augmented matrix too large to materialise");
  }
  linalg::Matrix a(rows, nc);
  // Each pair row is written by exactly one task: parallel and
  // bit-identical at any thread count.
  util::parallel_for(
      np, 1,
      [&](std::size_t i_begin, std::size_t i_end) {
        std::vector<std::uint32_t> shared;
        for (std::size_t i = i_begin; i < i_end; ++i) {
          const auto ri = r.row(i);
          for (std::size_t j = i; j < np; ++j) {
            linalg::intersect_sorted(ri, r.row(j), shared);
            auto out = a.row(pair_index(i, j, np));
            for (const auto link : shared) out[link] = 1.0;
          }
        }
      },
      threads);
  return a;
}

linalg::Vector packed_covariances(stats::CovarianceView s) {
  const std::size_t np = s.dim();
  linalg::Vector sigma(pair_count(np), 0.0);
  for (std::size_t i = 0; i < np; ++i) {
    const auto row = s.c.row(i);
    const std::size_t base = pair_index(i, i, np);
    for (std::size_t j = i; j < np; ++j) {
      sigma[base + (j - i)] = row[j] * s.scale;
    }
  }
  return sigma;
}

linalg::Matrix augmented_normal_matrix(const linalg::CoTraversalGram& gram,
                                       std::size_t threads) {
  return gram.map_to_dense([](double n) { return n * (n + 1.0) / 2.0; },
                           threads);
}

linalg::Vector augmented_normal_rhs(
    const stats::CenteredSnapshots& y,
    const std::vector<std::vector<std::uint32_t>>& column_paths,
    std::size_t threads) {
  const std::size_t nc = column_paths.size();
  const std::size_t np = y.dim();
  const std::size_t m = y.count();
  if (m < 2) throw std::logic_error("need >= 2 snapshots");
  linalg::Vector h(nc, 0.0);

  // Per-path variances, shared across links.  Parallel over paths: each
  // entry sums its snapshots in ascending order, matching the scalar sweep
  // bit for bit.
  const std::span<const double> flat = y.flat();
  linalg::Vector path_var(np, 0.0);
  util::parallel_for(
      np, 64,
      [&](std::size_t i_begin, std::size_t i_end) {
        for (std::size_t i = i_begin; i < i_end; ++i) {
          double acc = 0.0;
          const double* p = flat.data() + i;
          for (std::size_t l = 0; l < m; ++l, p += np) acc += *p * *p;
          path_var[i] = acc / static_cast<double>(m - 1);
        }
      },
      threads);

  util::parallel_for(
      nc, 4,
      [&](std::size_t k_begin, std::size_t k_end) {
        for (std::size_t k = k_begin; k < k_end; ++k) {
          const auto& paths = column_paths[k];
          // FullSum = 1/(m-1) sum_l ( sum_{i in S_k} ytilde_i^l )^2.
          double full_sum = 0.0;
          for (std::size_t l = 0; l < m; ++l) {
            const auto row = y.sample(l);
            double s = 0.0;
            for (const auto i : paths) s += row[i];
            full_sum += s * s;
          }
          full_sum /= static_cast<double>(m - 1);
          double diag = 0.0;
          for (const auto i : paths) diag += path_var[i];
          h[k] = 0.5 * (full_sum + diag);
        }
      },
      threads);
  return h;
}

// Each S_ij = c_ij * scale must be rounded to a double before it is
// summed, exactly as a materialised S entry would be.  GCC contracts a
// multiply that feeds an add into one FMA by default, across statements
// too, so contraction is off for this function; Clang contracts only
// within one expression, which the separate statements below avoid.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")
#endif
linalg::Vector augmented_normal_rhs(
    stats::CovarianceView s,
    const std::vector<std::vector<std::uint32_t>>& column_paths,
    std::size_t threads) {
  const std::size_t nc = column_paths.size();
  linalg::Vector h(nc, 0.0);
  // Links are independent (disjoint writes) and every per-link sum runs in
  // ascending path order: bit-identical at any thread count.
  util::parallel_for(
      nc, 4,
      [&](std::size_t k_begin, std::size_t k_end) {
        for (std::size_t k = k_begin; k < k_end; ++k) {
          const auto& paths = column_paths[k];
          double full_sum = 0.0;
          double diag = 0.0;
          for (const auto i : paths) {
            const auto row = s.c.row(i);
            const double s_ii = row[i] * s.scale;
            diag += s_ii;
            double acc = 0.0;
            for (const auto j : paths) {
              const double s_ij = row[j] * s.scale;
              acc += s_ij;
            }
            full_sum += acc;
          }
          h[k] = 0.5 * (full_sum + diag);
        }
      },
      threads);
  return h;
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC pop_options
#endif

}  // namespace losstomo::core

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

linalg::Vector augmented_normal_rhs(const stats::SnapshotWindow& y,
                                    const linalg::SparseBinaryMatrix& r,
                                    std::size_t threads) {
  const std::size_t np = y.dim;
  const std::size_t nc = r.cols();
  const std::size_t m = y.count;
  if (r.rows() != np) throw std::invalid_argument("window dim != path count");
  if (m < 2) throw std::logic_error("need >= 2 snapshots");
  const double m1 = static_cast<double>(m - 1);

  // Means (zero for a centred window) and per-path variances.  Parallel
  // over path ranges; each range sweeps the snapshots oldest to newest, so
  // every entry sums in snapshot order, as stats::sample_means does.
  linalg::Vector mean(np, 0.0);
  linalg::Vector path_var(np, 0.0);
  util::parallel_for(
      np, 256,
      [&](std::size_t i_begin, std::size_t i_end) {
        if (!y.centered) {
          for (std::size_t l = 0; l < m; ++l) {
            const auto row = y.sample(l);
            for (std::size_t i = i_begin; i < i_end; ++i) mean[i] += row[i];
          }
          const double inv = 1.0 / static_cast<double>(m);
          for (std::size_t i = i_begin; i < i_end; ++i) mean[i] *= inv;
        }
        for (std::size_t l = 0; l < m; ++l) {
          const auto row = y.sample(l);
          for (std::size_t i = i_begin; i < i_end; ++i) {
            const double d = row[i] - mean[i];
            path_var[i] += d * d;
          }
        }
        for (std::size_t i = i_begin; i < i_end; ++i) path_var[i] /= m1;
      },
      threads);

  // Squared link sums s_k(l)^2, one snapshot per task.  Path-major, so
  // each s_k(l) adds its paths' centred values in ascending path order.
  // Each square is stored before the sum below reads it, so it is rounded
  // on its own whether or not the compiler contracts multiply-adds.
  linalg::Matrix squares(m, nc);
  util::parallel_for(
      m, 1,
      [&](std::size_t l_begin, std::size_t l_end) {
        for (std::size_t l = l_begin; l < l_end; ++l) {
          const auto row = y.sample(l);
          auto s = squares.row(l);
          for (std::size_t i = 0; i < np; ++i) {
            const double d = row[i] - mean[i];
            for (const auto k : r.row(i)) s[k] += d;
          }
          for (auto& v : s) v *= v;
        }
      },
      threads);

  // h starts as sum_{i in S_k} var_i, folded path-major like the sums.
  linalg::Vector h(nc, 0.0);
  for (std::size_t i = 0; i < np; ++i) {
    for (const auto k : r.row(i)) h[k] += path_var[i];
  }
  util::parallel_for(
      nc, 64,
      [&](std::size_t k_begin, std::size_t k_end) {
        for (std::size_t k = k_begin; k < k_end; ++k) {
          // FullSum = 1/(m-1) sum_l s_k(l)^2, snapshots in order.
          double full_sum = 0.0;
          for (std::size_t l = 0; l < m; ++l) full_sum += squares(l, k);
          full_sum /= m1;
          h[k] = 0.5 * (full_sum + h[k]);
        }
      },
      threads);
  return h;
}

}  // namespace losstomo::core

// The augmented matrix A of Definition 1 and its large-scale implicit form.
//
// A has one row per unordered path pair (i <= j): the element-wise product
// R_i* (x) R_j*, i.e. the indicator of the links shared by paths i and j.
// Lemma 1 turns Sigma = R diag(v) R^T into the linear system Sigma* = A v;
// Theorem 1 shows A has full column rank for T.1/T.2 topologies, making the
// link variances v identifiable.
//
// Note on row indexing: the paper prints the packed index
// (i-1)np + (j-i) + 1, which overflows for i = np; we use standard
// upper-triangle row-major packing, which matches the paper's own printed
// example (see DESIGN.md §1, "Indexing erratum").
//
// For large path sets A is never materialised: everything the Phase-1
// normal equations need collapses onto the co-traversal Gram matrix
// N = R^T R via
//   (A^T A)_kl = N_kl (N_kl + 1) / 2, and
//   (A^T sigma)_k = 1/2 [ 1/(m-1) sum_l s_k(l)^2 + sum_{i in S_k} var_i ],
// where s_k(l) is the sum of the centred observations of the paths through
// link k in snapshot l (derivation in DESIGN.md §5).
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "stats/moments.hpp"

namespace losstomo::core {

/// Number of unordered path pairs np(np+1)/2.
constexpr std::size_t pair_count(std::size_t np) {
  return np * (np + 1) / 2;
}

/// Packed row index of pair (i, j), 0-based.  Precondition: i <= j < np.
constexpr std::size_t pair_index(std::size_t i, std::size_t j, std::size_t np) {
  return i * np - i * (i - 1) / 2 + (j - i);
}

/// Explicit dense A (pair_count(np) x nc).  Intended for small systems and
/// cross-checking the implicit path; throws std::length_error when the
/// result would exceed `max_entries` doubles.  Row assembly is split over
/// the thread pool (rows are disjoint, so the result is bit-identical at
/// any `threads`; 0 = library default).
linalg::Matrix build_augmented_matrix(const linalg::SparseBinaryMatrix& r,
                                      std::size_t max_entries = 50'000'000,
                                      std::size_t threads = 0);

/// Packed vector of sample covariances Sigma*_(i,j) = S(i, j) for all
/// i <= j, aligned with build_augmented_matrix's rows, from an
/// already-computed covariance matrix S (stats::covariance_matrix).
linalg::Vector packed_covariances(const linalg::Matrix& s);

/// Implicit normal equations: G = A^T A from the co-traversal Gram matrix,
/// rows filled in parallel (bit-identical at any thread count).
linalg::Matrix augmented_normal_matrix(const linalg::CoTraversalGram& gram,
                                       std::size_t threads = 0);

/// Implicit right-hand side h = A^T Sigma* using the closed form above.
/// `column_paths[k]` lists the paths traversing link k (from
/// SparseBinaryMatrix::column_lists()).  Links are processed in parallel;
/// every per-link sum keeps the sequential snapshot order, so the result is
/// bit-identical to the scalar implementation at any thread count.
linalg::Vector augmented_normal_rhs(
    const stats::CenteredSnapshots& y,
    const std::vector<std::vector<std::uint32_t>>& column_paths,
    std::size_t threads = 0);

/// Same right-hand side evaluated from an already-formed covariance matrix
/// S (stats::CovarianceSource::matrix()) instead of raw snapshots:
///   h_k = 1/2 [ sum_{i,j in S_k} S_ij + sum_{i in S_k} S_ii ].
/// This is the per-tick form the streaming engine uses: its cost depends
/// only on the sharing structure, never on the window length.
linalg::Vector augmented_normal_rhs(
    const linalg::Matrix& s,
    const std::vector<std::vector<std::uint32_t>>& column_paths,
    std::size_t threads = 0);

}  // namespace losstomo::core

// Identifiability diagnostics: operational tooling around Theorem 1.
//
// Theorem 1 guarantees full column rank of the augmented matrix A when
// T.1/T.2 hold; real deployments want to *check* that on their measured
// routing matrix before trusting Phase 1, and — when the check fails — to
// know which links are entangled so they can add beacons or destinations.
// This module reports:
//   * rank(A) vs nc (variance identifiability),
//   * rank(R) vs nc (the first-moment deficit LIA works around),
//   * the links whose variance is NOT uniquely determined (the non-pivot
//     columns of a rank-revealing factorization of A^T A).
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/sparse.hpp"

namespace losstomo::core {

struct IdentifiabilityReport {
  std::size_t link_count = 0;
  std::size_t routing_rank = 0;        // rank(R)
  std::size_t augmented_rank = 0;      // rank(A)
  /// A minimal set of links whose exclusion leaves the remaining variances
  /// identifiable (the non-pivot columns of A's rank factorization); empty
  /// iff variances_identifiable().  Each listed link is entangled with the
  /// pivot basis — adding a beacon/destination that separates it is the
  /// deployment fix.
  std::vector<std::uint32_t> unidentifiable_links;

  [[nodiscard]] bool variances_identifiable() const {
    return augmented_rank == link_count;
  }
  [[nodiscard]] bool means_identifiable() const {
    return routing_rank == link_count;
  }
};

/// Analyzes a reduced routing matrix.  Works on the implicit Gram forms so
/// it scales to large path sets (A is never materialised).  Complexity:
/// O(nc^3) for the rank-revealing factorizations of the nc x nc Gram
/// matrices (independent of the path count beyond forming N = R^T R).
/// Ranks are decided with a relative pivot tolerance of 1e-9.  Pure
/// function; safe to call concurrently.
IdentifiabilityReport analyze_identifiability(
    const linalg::SparseBinaryMatrix& r);

}  // namespace losstomo::core

// Phase 2, step A of LIA: eliminating good links to reach full column rank
// (paper §5.2).
//
// Links are sorted by estimated variance; the lowest-variance columns are
// removed from R until the remaining matrix R* has full column rank.
// Because a subset of linearly independent columns stays independent,
// "remove from the bottom until full rank" equals "admit columns from the
// *top* (highest variance first) until the first dependent column": once a
// suffix of size j+1 is dependent, every larger suffix contains it and is
// dependent too, so the first rejection marks the exact minimal removal
// set.  Admission runs on an incremental Cholesky of the co-traversal Gram
// matrix N = R^T R (column c is dependent on the admitted set iff its
// residual against their span vanishes, computable from Gram entries
// alone), which also leaves behind the factor of R*^T R* needed to solve
// eq. (9).
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/sparse.hpp"

namespace losstomo::core {

struct EliminationOptions {
  /// Paper behaviour: stop at the first dependent column (minimal prefix
  /// removal in variance order).  When false, continue scanning and admit
  /// any later independent columns (greedy maximal set; ablation only).
  bool stop_at_first_dependence = true;
};

struct Elimination {
  /// Links admitted into R*, in admission order (descending variance).
  std::vector<std::uint32_t> kept;
  /// Links removed (their loss is approximated as 0 / phi = 1).
  std::vector<std::uint32_t> removed;
  /// Cholesky factor of R*^T R* in admission order; reused by the
  /// snapshot loss solver.
  linalg::IncrementalCholesky factor;
  /// All links in descending-variance order (ties by id).
  std::vector<std::uint32_t> order;
};

/// Runs the elimination on the co-traversal Gram N = R^T R of the routing
/// matrix.  Precondition: `variances.size() == gram.dim()` (throws
/// std::invalid_argument).  Complexity: O(nc log nc) for the variance sort
/// plus O(kept^2) work per admitted column — O(kept^2 * nc) in total, no
/// dense matrix ever materialised.  N is an input, so callers whose
/// routing outlives many variance estimates (Lia, LiaMonitor) build it
/// once per routing and pay no Gram build per call.  Pure function of its
/// arguments; safe to call concurrently from multiple threads, also on one
/// shared N.
Elimination eliminate_low_variance_links(const linalg::CoTraversalGram& gram,
                                         std::span<const double> variances,
                                         const EliminationOptions& options = {});

/// Builds N = R^T R (an O(sum of row length^2) hash-map pass plus a sort)
/// and runs the elimination on it.  Precondition: `variances.size() ==
/// r.cols()` (throws std::invalid_argument).
Elimination eliminate_low_variance_links(const linalg::SparseBinaryMatrix& r,
                                         std::span<const double> variances,
                                         const EliminationOptions& options = {});

}  // namespace losstomo::core

// LIA — the Loss Inference Algorithm (paper §5.3).
//
// Facade tying the two phases together:
//   Phase 1: learn link variances from m snapshots (variance_estimator).
//   Phase 2: order links by variance, eliminate the least-variant columns
//            until R* has full column rank (elimination), solve eq. (9) on
//            the current snapshot (loss_solver).
//
// Typical use:
//   Lia lia(rrm.matrix());
//   lia.learn(history_y);                  // m snapshots
//   const auto result = lia.infer(y_now);  // (m+1)-th snapshot
//   // result.loss[k] is the inferred loss rate of virtual link k.
#pragma once

#include <optional>
#include <span>

#include "core/elimination.hpp"
#include "core/loss_solver.hpp"
#include "core/variance_estimator.hpp"
#include "linalg/sparse.hpp"
#include "stats/moments.hpp"

namespace losstomo::core {

struct LiaOptions {
  VarianceOptions variance;
  EliminationOptions elimination;
};

/// Thread-safety: a Lia is a single-writer object — learn/adopt mutate
/// state; infer() is const and may run concurrently with other infer()
/// calls (never with a concurrent learn).  Internal Phase-1 work
/// parallelizes per LiaOptions::variance.threads with bit-identical
/// results at any thread count.
class Lia {
 public:
  /// Takes the routing matrix by value: a Lia owns its copy, so it stays
  /// valid however the caller produced the matrix (including temporaries —
  /// the old const-reference member dangled there).  Builds the Phase-2
  /// co-traversal Gram N = R^T R here, once: the routing never changes, so
  /// every learn/adopt reuses it.
  explicit Lia(linalg::SparseBinaryMatrix r, LiaOptions options = {});

  /// Phase 1: estimates link variances from the history of snapshots and
  /// prepares the Phase-2 elimination.  May be called again as new history
  /// accumulates (sliding window).  Preconditions: history.dim() ==
  /// routing().rows(), history.count() >= 2 (throws
  /// std::invalid_argument).  Cost: the Phase-1 covariance-system build —
  /// see estimate_link_variances — plus the O(kept^2 * nc) elimination.
  const VarianceEstimate& learn(const stats::SnapshotMatrix& history);

  /// Phase 1 bypass for callers that already know the variances (tests,
  /// delay extension).  `variances.size()` must equal routing().cols().
  const VarianceEstimate& learn_from_variances(linalg::Vector variances);

  /// Adopts an externally produced Phase-1 estimate (e.g. from
  /// StreamingNormalEquations::solve) and prepares the Phase-2 elimination.
  const VarianceEstimate& adopt(VarianceEstimate estimate);

  /// Phase 2: infers per-link loss rates for one snapshot.  Requires a
  /// prior learn(); `y.size()` must equal routing().rows().  Cost:
  /// O(kept * nc) substitutions on the cached elimination factor.
  [[nodiscard]] LossInference infer(std::span<const double> y) const;

  [[nodiscard]] bool trained() const { return variance_.has_value(); }
  [[nodiscard]] const VarianceEstimate& variances() const;
  [[nodiscard]] const Elimination& elimination() const;
  [[nodiscard]] const linalg::SparseBinaryMatrix& routing() const { return r_; }

 private:
  linalg::SparseBinaryMatrix r_;  // owned (see constructor note)
  linalg::CoTraversalGram gram_;  // N = R^T R of r_, for every elimination
  LiaOptions options_;
  std::optional<VarianceEstimate> variance_;
  std::optional<Elimination> elimination_;
};

}  // namespace losstomo::core

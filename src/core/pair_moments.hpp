// PairMoments — sliding-window covariance restricted to the sharing pairs.
//
// The dense stats::StreamingMoments accumulator maintains all np^2 entries
// of the window covariance matrix, O(np^2) per tick.  But the streaming
// drop-negative Phase-1 path only ever READS the covariances of pairs that
// share a link — ~1.3M of the 26M entries on the recorded 5112-path
// overlay.  This accumulator maintains exactly those entries, indexed by a
// shared core::SharingPairStore: a steady tick is O(np + sharing pairs)
// (two rank-1 passes over the stored pair list), and memory is O(np *
// window + pairs) instead of O(np^2).
//
// Ring, means, Youngs–Cramer sequencing, refresh cadence and churn ledger
// are the stats::SlidingWindow owned by the stats::WindowAccumulator base,
// which StreamingMoments runs on too; this class only adds the per-pair
// cross-products, their fold and exact-refresh kernels, and the pair
// reads.  The two accumulators therefore agree to floating-point drift on
// every stored pair.  The full covariance matrix is deliberately NOT
// available — view() throws — which is why this source only powers the
// drop-negative policy.  Keep-all needs no pair covariances at all: its
// closed-form rhs reads the ring, so keep-all monitors run on
// stats::SnapshotRing.
//
// Path churn is window bookkeeping (push a zero filler for inactive
// paths; a grown dimension starts with an all-zero ring history).  The
// pair list itself grows through SharingPairStore::add_rows (driven by the
// monitor).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/sharing_pairs.hpp"
#include "linalg/matrix.hpp"
#include "stats/covariance_source.hpp"
#include "stats/sliding_window.hpp"

namespace losstomo::core {

/// Pair-indexed sparse sliding-window covariance accumulator.
///
/// Thread-safety: single-writer (push/refresh/add_path/activate mutate);
/// reads parallelize internally per options.threads with bit-identical
/// results at any thread count.
class PairMoments final : public stats::WindowAccumulator {
 public:
  /// `store` must outlive the accumulator and already enumerate the pairs
  /// of the routing matrix the pushed snapshots are measured over; `dim`
  /// must equal store->path_count().
  PairMoments(std::shared_ptr<const SharingPairStore> store, std::size_t dim,
              stats::StreamingMomentsOptions options);

  /// Cost: O(dim + pair_count()) — one pass over the stored pairs folding
  /// the retire and add terms — plus the amortized O(window * pairs /
  /// refresh_every) drift refresh.  Throws std::logic_error when the store
  /// grew without a matching add_paths().
  void push(std::span<const double> y) override;
  /// Grows the ring and extends the pair values to match the store — call
  /// AFTER SharingPairStore::add_rows.
  std::size_t add_paths(std::size_t count) override;

  /// Recomputes means and every stored pair entry from the retained ring
  /// (drift bound; runs automatically every refresh_every pushes).
  void refresh();

  // CovarianceSource:
  /// O(log deg) pair lookup; returns 0 for pairs that share no link (their
  /// covariance is never consumed by the drop-negative path).
  [[nodiscard]] double covariance(std::size_t i, std::size_t j) const override;
  /// Unsupported: the full S is exactly what this accumulator avoids.
  /// Throws std::logic_error.
  [[nodiscard]] stats::CovarianceView view() const override;
  [[nodiscard]] bool view_is_cheap() const override { return false; }

  /// Covariance of stored pair p — the O(1) read the aligned
  /// StreamingNormalEquations refresh uses.  Requires count() >= 2.
  [[nodiscard]] double pair_covariance(std::size_t p) const {
    return values_[p] / static_cast<double>(count() - 1);
  }
  /// The store the pair values are indexed by (the monitor's shared one).
  [[nodiscard]] const SharingPairStore* store() const { return store_.get(); }
  /// Centred cross-product per stored pair, aligned with store()'s
  /// indexing; cov(pair p) = pair_values()[p] / (count() - 1).
  [[nodiscard]] std::span<const double> pair_values() const {
    return values_;
  }

  /// The window and the per-pair cross-products, in the "PMOM" section.
  /// The SharingPairStore is serialized by its owner (the monitor):
  /// restore targets an accumulator already constructed over the restored
  /// store and throws io::CheckpointError(kMismatch) on any shape
  /// disagreement.
  void save_state(io::CheckpointWriter& writer) const override;
  void restore_state(io::CheckpointReader& reader) override;

 private:
  /// values_[p] += wr * dr_i dr_j + wa * da_i da_j over every stored pair
  /// in one pass (SlidingWindow's fold kernel; wr == 0 adds only).
  /// Parallel, disjoint writes — bit-identical at any thread count.
  void fold(double wr, double wa);

  std::shared_ptr<const SharingPairStore> store_;
  std::vector<double> values_;  // centred cross-product per stored pair
};

}  // namespace losstomo::core

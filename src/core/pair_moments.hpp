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
// are the shared stats::SlidingWindow that StreamingMoments runs on too;
// this class only adds the per-pair cross-products, their fold and
// exact-refresh kernels, and the pair reads.  The two accumulators
// therefore agree to floating-point drift on every stored pair.  The full
// covariance matrix is deliberately NOT available — view() throws —
// which is why this source only powers the drop-negative policy;
// keep-all's closed-form rhs needs the dense S and stays on
// StreamingMoments.
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
class PairMoments final : public stats::CovarianceSource {
 public:
  /// `store` must outlive the accumulator and already enumerate the pairs
  /// of the routing matrix the pushed snapshots are measured over; `dim`
  /// must equal store->path_count().
  PairMoments(std::shared_ptr<const SharingPairStore> store, std::size_t dim,
              stats::StreamingMomentsOptions options);

  /// Folds one snapshot (size dim()) into the window; retires the oldest
  /// when full.  Cost: O(dim + pair_count()) — one pass over the stored
  /// pairs folding the retire and add terms — plus the amortized
  /// O(window * pairs / refresh_every) drift refresh.
  void push(std::span<const double> y);

  /// Batched ingestion entry point: folds `rows` consecutive snapshots
  /// from a contiguous row-major block of rows * dim() doubles.
  /// State-identical and bit-identical to the per-row push() loop (same
  /// contract as stats::StreamingMoments::push_block).
  void push_block(std::span<const double> values, std::size_t rows);

  /// Recomputes means and every stored pair entry from the retained ring
  /// (drift bound; runs automatically every refresh_every pushes).
  void refresh();

  // CovarianceSource:
  [[nodiscard]] std::size_t dim() const override { return window_.dim(); }
  [[nodiscard]] std::size_t count() const override { return window_.count(); }
  /// O(log deg) pair lookup; returns 0 for pairs that share no link (their
  /// covariance is never consumed by the drop-negative path).
  [[nodiscard]] double covariance(std::size_t i, std::size_t j) const override;
  /// Unsupported: the full S is exactly what this accumulator avoids.
  /// Throws std::logic_error.
  [[nodiscard]] stats::CovarianceView view() const override;
  [[nodiscard]] bool view_is_cheap() const override { return false; }
  [[nodiscard]] std::size_t samples(std::size_t i) const override {
    return window_.samples(i);
  }
  [[nodiscard]] bool pair_ready(std::size_t i, std::size_t j) const {
    return window_.pair_ready(i, j);
  }

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

  [[nodiscard]] std::size_t window() const { return window_.window(); }
  [[nodiscard]] bool full() const { return count() == window(); }
  [[nodiscard]] std::size_t pushes() const { return window_.pushes(); }
  [[nodiscard]] std::size_t refreshes() const { return window_.refreshes(); }

  // Path churn (same contract as stats::StreamingMoments):
  void activate_path(std::size_t i) { window_.activate(i); }
  void retire_path(std::size_t i) { window_.retire(i); }
  /// Appends one dimension (active, zero samples) and extends the pair
  /// values to match the store — call AFTER SharingPairStore::add_row.
  /// Returns the new dimension's index.
  std::size_t add_path() { return add_paths(1); }
  /// Batched growth: appends `count` dimensions at once, state-identical
  /// to `count` add_path() calls but with ONE ring reallocation — call
  /// AFTER SharingPairStore::add_rows.  Returns the first new dimension's
  /// index.
  std::size_t add_paths(std::size_t count);
  [[nodiscard]] bool path_active(std::size_t i) const {
    return window_.active(i);
  }

  // -- Checkpointing (io/checkpoint.hpp) ----------------------------------
  //
  // Same contract as stats::StreamingMoments::save_state/restore_state:
  // the window (ring, means, churn ledger, cadence counters) and the
  // per-pair cross-products round-trip bit-exactly.  The
  // SharingPairStore is serialized by its owner (the monitor) — restore
  // targets an accumulator already constructed over the restored store and
  // throws io::CheckpointError(kMismatch) on any shape disagreement.
  void save_state(io::CheckpointWriter& writer) const;
  void restore_state(io::CheckpointReader& reader);

 private:
  /// values_[p] += wr * dr_i dr_j + wa * da_i da_j over every stored pair
  /// in one pass (SlidingWindow's fold kernel; wr == 0 adds only).
  /// Parallel, disjoint writes — bit-identical at any thread count.
  void fold(double wr, double wa);

  std::shared_ptr<const SharingPairStore> store_;
  stats::SlidingWindow window_;
  std::vector<double> values_;  // centred cross-product per stored pair
};

}  // namespace losstomo::core

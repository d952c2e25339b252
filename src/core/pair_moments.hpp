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
// The arithmetic mirrors StreamingMoments entry by entry (Youngs–Cramer
// add/retire on the centred cross-products, deterministic periodic full
// refresh from the retained ring), so the two accumulators agree to
// floating-point drift on every stored pair.  The full covariance matrix is
// deliberately NOT available — matrix() throws — which is why this source
// only powers the drop-negative policy; keep-all's closed-form rhs needs
// the dense S and stays on StreamingMoments.
//
// Path churn follows the same uniform-invariant design as StreamingMoments:
// add/retire is bookkeeping (per-dimension validity), push a zero filler
// for inactive paths, and a grown dimension starts with an all-zero ring
// history that already satisfies the incremental invariant.  The pair list
// itself grows through SharingPairStore::add_row (driven by the monitor).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/sharing_pairs.hpp"
#include "linalg/matrix.hpp"
#include "stats/covariance_source.hpp"
#include "stats/moments.hpp"
#include "stats/streaming.hpp"

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
  /// when full.  Cost: O(dim + pair_count()) — two rank-1 passes over the
  /// stored pairs — plus the amortized O(window * pairs / refresh_every)
  /// drift refresh.
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
  [[nodiscard]] std::size_t dim() const override { return dim_; }
  [[nodiscard]] std::size_t count() const override { return count_; }
  /// O(log deg) pair lookup; returns 0 for pairs that share no link (their
  /// covariance is never consumed by the drop-negative path).
  [[nodiscard]] double covariance(std::size_t i, std::size_t j) const override;
  /// Unsupported: the full S is exactly what this accumulator avoids.
  /// Throws std::logic_error.
  [[nodiscard]] const linalg::Matrix& matrix() const override;
  [[nodiscard]] bool matrix_is_cheap() const override { return false; }
  [[nodiscard]] std::size_t samples(std::size_t i) const override;
  [[nodiscard]] bool pair_ready(std::size_t i, std::size_t j) const;

  /// Covariance of stored pair p — the O(1) read the aligned
  /// StreamingNormalEquations refresh uses.  Requires count() >= 2.
  [[nodiscard]] double pair_covariance(std::size_t p) const {
    return values_[p] / static_cast<double>(count_ - 1);
  }
  /// The store the pair values are indexed by (the monitor's shared one).
  [[nodiscard]] const SharingPairStore* store() const { return store_.get(); }
  /// Centred cross-product per stored pair, aligned with store()'s
  /// indexing; cov(pair p) = pair_values()[p] / (count() - 1).
  [[nodiscard]] std::span<const double> pair_values() const {
    return values_;
  }

  [[nodiscard]] std::size_t window() const { return options_.window; }
  [[nodiscard]] bool full() const { return count_ == options_.window; }
  [[nodiscard]] std::size_t pushes() const { return pushes_; }
  [[nodiscard]] std::size_t refreshes() const { return refreshes_; }

  // Path churn (same contract as stats::StreamingMoments):
  void activate_path(std::size_t i);
  void retire_path(std::size_t i);
  /// Appends one dimension (active, zero samples) and extends the pair
  /// values to match the store — call AFTER SharingPairStore::add_row.
  /// Returns the new dimension's index.
  std::size_t add_path();
  /// Batched growth: appends `count` dimensions at once, state-identical
  /// to `count` add_path() calls but with ONE ring reallocation — call
  /// AFTER SharingPairStore::add_rows.  Returns the first new dimension's
  /// index.
  std::size_t add_paths(std::size_t count);
  [[nodiscard]] bool path_active(std::size_t i) const {
    return churn_.active(i);
  }

  // -- Checkpointing (io/checkpoint.hpp) ----------------------------------
  //
  // Same contract as stats::StreamingMoments::save_state/restore_state:
  // ring, means, per-pair cross-products, churn ledger, and cadence
  // counters round-trip bit-exactly; delta_ scratch is rebuilt.  The
  // SharingPairStore is serialized by its owner (the monitor) — restore
  // targets an accumulator already constructed over the restored store and
  // throws io::CheckpointError(kMismatch) on any shape disagreement.
  void save_state(io::CheckpointWriter& writer) const;
  void restore_state(io::CheckpointReader& reader);

 private:
  void add(std::span<const double> y);
  void retire(std::span<const double> y);
  /// values_[p] += w * delta_i delta_j over every stored pair (parallel,
  /// disjoint writes — bit-identical at any thread count).
  void rank1(double w);

  std::shared_ptr<const SharingPairStore> store_;
  std::size_t dim_;
  stats::StreamingMomentsOptions options_;
  stats::PathChurnLedger churn_;  // shared activation/validity rule
  stats::SnapshotMatrix ring_;  // window rows; head_ = oldest
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t pushes_ = 0;
  std::size_t since_refresh_ = 0;
  std::size_t refreshes_ = 0;
  linalg::Vector mean_;
  linalg::Vector delta_;
  std::vector<double> values_;  // centred cross-product per stored pair
};

}  // namespace losstomo::core

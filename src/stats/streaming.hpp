// StreamingMoments — sliding-window second moments under rank-1 updates.
//
// A monitoring loop (core::LiaMonitor, paper §7) observes one np-dimensional
// snapshot per measurement period and needs the covariance matrix S of the
// most recent `window` snapshots every tick.  Recomputing S from the window
// costs O(window * np^2); this accumulator keeps the full centred
// cross-product matrix C = sum_l (y_l - mean)(y_l - mean)^T current under
// the Youngs–Cramer add/retire updates of stats::SlidingWindow (ring,
// means, cadence, churn ledger — shared with core::PairMoments), so a
// steady-state tick is two symmetric rank-1 updates, O(np^2) independent
// of the window length, and S = C / (n-1) is always available.
//
// Floating-point drift from the incremental updates is bounded by a
// deterministic periodic full refresh: every `refresh_every` pushes the
// means and C are recomputed from the retained window via the blocked SYRK
// kernel (linalg/kernels.hpp).  All update loops are row-parallel with
// per-row independent arithmetic, so results are bit-identical at any
// thread count.
#pragma once

#include <cstddef>
#include <span>

#include "linalg/matrix.hpp"
#include "stats/covariance_source.hpp"
#include "stats/sliding_window.hpp"

namespace losstomo::stats {

class StreamingMoments final : public CovarianceSource {
 public:
  StreamingMoments(std::size_t dim, StreamingMomentsOptions options);

  /// Folds one snapshot into the window; retires the oldest snapshot
  /// first when the window is full.  Precondition: y.size() == dim()
  /// (throws std::invalid_argument).  Cost: O(dim^2) — two symmetric
  /// rank-1 updates in the steady state — plus the amortized
  /// O(window * dim^2 / refresh_every) drift refresh.  Single-writer:
  /// do not overlap push() with reads of matrix()/covariance().
  void push(std::span<const double> y);

  /// Folds `rows` consecutive snapshots from a contiguous row-major block
  /// of rows * dim() doubles — the batched ingestion entry point
  /// (io::BinaryTraceReader blocks fold in with no per-row call
  /// overhead).  State-identical and bit-identical to the per-row push()
  /// loop: the Youngs–Cramer recurrences are inherently sequential per
  /// snapshot, so the block form hoists validation and keeps the
  /// per-snapshot arithmetic (whose rank-1 inner loops are already
  /// util::parallel row-chunked) unchanged.
  void push_block(std::span<const double> values, std::size_t rows);

  // CovarianceSource:
  [[nodiscard]] std::size_t dim() const override { return window_.dim(); }
  [[nodiscard]] std::size_t count() const override { return window_.count(); }
  [[nodiscard]] double covariance(std::size_t i, std::size_t j) const override;
  [[nodiscard]] const linalg::Matrix& matrix() const override;
  [[nodiscard]] bool matrix_is_cheap() const override { return true; }

  [[nodiscard]] std::size_t window() const { return window_.window(); }
  [[nodiscard]] bool full() const { return count() == window(); }
  [[nodiscard]] const linalg::Vector& means() const { return window_.means(); }
  /// Total snapshots ever pushed.
  [[nodiscard]] std::size_t pushes() const { return window_.pushes(); }
  /// Full recomputes performed so far (diagnostic for the drift tests).
  [[nodiscard]] std::size_t refreshes() const { return window_.refreshes(); }

  // -- Path churn (scenario engine) ---------------------------------------
  //
  // The accumulator's mathematical state is uniform across dimensions: C
  // and the means always equal (up to bounded drift) the moments of the
  // current ring content, whatever values each dimension's slots hold.
  // Churn therefore needs no arithmetic changes — only bookkeeping that
  // marks, per dimension, how many trailing ring slots carry *real*
  // measurements.  Callers must keep pushing a deterministic filler
  // (conventionally 0) for inactive dimensions; a freshly (re)activated
  // dimension becomes pair-ready once `window` further pushes have flushed
  // every filler slot out of the ring.

  /// Marks dimension i active from the next push on; its validity restarts
  /// at zero samples.  No-op when already active.
  void activate_path(std::size_t i) { window_.activate(i); }
  /// Marks dimension i inactive: samples(i) drops to 0 and every pair
  /// through i stops being ready.  Its entries keep updating with the
  /// pushed filler so a later activate_path(i) needs no state repair.
  void retire_path(std::size_t i) { window_.retire(i); }
  /// Appends one dimension (active, zero samples).  The ring history of the
  /// new dimension is zero-filled, which is exactly the state the
  /// incremental updates expect.  Returns the new dimension's index.
  /// Cost: O(dim * (dim + window)) reallocation — churn events are rare.
  std::size_t add_path() { return add_paths(1); }
  /// Batched growth: appends `count` dimensions at once, state-identical to
  /// `count` add_path() calls but with ONE ring/cross reallocation instead
  /// of `count` — the O(change) path for mass-growth events.  Returns the
  /// first new dimension's index.
  std::size_t add_paths(std::size_t count);
  [[nodiscard]] bool path_active(std::size_t i) const {
    return window_.active(i);
  }

  // CovarianceSource churn override + the derived pair-readiness test
  // (both delegate to the shared stats::PathChurnLedger rule):
  [[nodiscard]] std::size_t samples(std::size_t i) const override {
    return window_.samples(i);
  }
  [[nodiscard]] bool pair_ready(std::size_t i, std::size_t j) const {
    return window_.pair_ready(i, j);
  }

  /// Recomputes means and C from the retained window (oldest to newest),
  /// discarding accumulated rounding drift.  Runs automatically on the
  /// refresh_every cadence; public so callers can pin a drift bound of
  /// their own.
  void refresh();

  // -- Checkpointing (io/checkpoint.hpp) ----------------------------------
  //
  // Serializes the window (ring, means, churn ledger, cadence counters)
  // and the cross-products — everything except the delta scratch and the
  // cov_ cache (recomputed on demand) — so a restored accumulator
  // continues the exact push/refresh sequence bit-identically.
  // restore_state targets an accumulator constructed with the same dim and
  // window and throws io::CheckpointError(kMismatch) otherwise; on failure
  // *this is unchanged.
  void save_state(io::CheckpointWriter& writer) const;
  void restore_state(io::CheckpointReader& reader);

 private:
  /// cross_ += w * delta delta^T (row-parallel).
  void rank1(double w);

  SlidingWindow window_;
  linalg::Matrix cross_;       // C, centred cross-products
  mutable linalg::Matrix cov_; // cached S = C / (count-1)
  mutable bool cov_valid_ = false;
};

}  // namespace losstomo::stats

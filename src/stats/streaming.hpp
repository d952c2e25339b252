// StreamingMoments — sliding-window second moments under rank-1 updates.
//
// Drop-negative Phase 1 (core::StreamingNormalEquations) reads the window
// covariance S of the most recent `window` snapshots every tick.
// Recomputing S from the window costs O(window * np^2); this accumulator
// keeps the full centred cross-product matrix
// C = sum_l (y_l - mean)(y_l - mean)^T current under the Youngs–Cramer
// add/retire updates of stats::SlidingWindow (ring, means, cadence, churn
// ledger — shared with stats::SnapshotRing and core::PairMoments).  A
// steady-state tick is one sweep over C that folds in both rank-1 terms
// (retire the oldest snapshot, add the new one), O(np^2) independent of
// the window length.
//
// S is never stored: view() hands out C with the scale 1/(n-1), and every
// consumer reads S_ij as C_ij * (1/(n-1)) — the only np x np buffer is C.
// Keep-all Phase 1 reads no S (the closed form folds the ring), so keep-all
// monitors run on stats::SnapshotRing instead.
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

class StreamingMoments final : public WindowAccumulator {
 public:
  StreamingMoments(std::size_t dim, StreamingMomentsOptions options);

  /// Cost: O(dim^2) — one sweep over C folding the retire and add terms in
  /// the steady state — plus the amortized O(window * dim^2 /
  /// refresh_every) drift refresh.  Do not overlap with reads of
  /// view()/covariance().
  void push(std::span<const double> y) override;
  /// Grows the ring and C; O(dim * (dim + window)) reallocation — churn
  /// events are rare.
  std::size_t add_paths(std::size_t count) override;

  // CovarianceSource:
  /// C_ij * (1/(n-1)): the same product view() consumers read.
  [[nodiscard]] double covariance(std::size_t i, std::size_t j) const override;
  /// {C, 1/(n-1)}; throws std::logic_error below 2 snapshots.  The view
  /// refers to C and is invalidated by the next push/refresh/add_paths.
  [[nodiscard]] CovarianceView view() const override;

  /// Recomputes means and C from the retained window (oldest to newest),
  /// discarding accumulated rounding drift.  Runs automatically on the
  /// refresh_every cadence; public so callers can pin a drift bound of
  /// their own.
  void refresh();

  /// The window and the cross-products, in the "SMOM" section.
  void save_state(io::CheckpointWriter& writer) const override;
  void restore_state(io::CheckpointReader& reader) override;

 private:
  /// cross_ += wr * dr dr^T + wa * da da^T in one row-parallel sweep
  /// (SlidingWindow's fold kernel; wr == 0 adds only).
  void fold(double wr, double wa);

  linalg::Matrix cross_;  // C, centred cross-products
};

}  // namespace losstomo::stats

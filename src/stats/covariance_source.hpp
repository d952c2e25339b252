// CovarianceSource — where the Phase-1 estimator gets its second-order
// statistics from.
//
// The covariance system Sigma* = A v only ever consumes pairwise sample
// covariances of the path observations, or — under keep-all — the
// snapshots themselves; it does not care how they were produced.  This
// interface decouples the one assembly of that system
// (core::StreamingNormalEquations::refresh, which the batch
// core::build_normal_equations runs on a fresh instance) from the
// measurement representation:
//
//  * BatchCovarianceSource — the batch path: wraps the centred m x np
//    snapshot matrix, serves on-demand O(m) pair covariances, and
//    materialises the full covariance matrix S lazily via the blocked SYRK
//    kernel when a consumer asks for it;
//  * the streaming accumulators (stats::WindowAccumulator in
//    sliding_window.hpp) — a sliding window fed one snapshot per tick:
//    stats::SnapshotRing keeps the ring alone, stats::StreamingMoments
//    also the cross-products C = (n-1) S under O(np^2) add/retire sweeps,
//    core::PairMoments C on the sharing pairs only.
//
// Dense consumers read S through a CovarianceView {c, scale}: S_ij =
// c(i, j) * scale.  The batch source hands out its materialised S with
// scale 1.0 (exact); StreamingMoments hands out C with scale 1/(n-1), so
// no second np x np buffer ever holds S.  The keep-all closed form needs
// no S at all: it reads the snapshots through snapshots(), which the batch
// source and every window accumulator serve.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "linalg/matrix.hpp"
#include "stats/moments.hpp"

namespace losstomo::io {
class CheckpointWriter;
class CheckpointReader;
}  // namespace losstomo::io

namespace losstomo::stats {

/// Dense read access to a covariance matrix S stored as a scaled matrix:
/// S_ij = c(i, j) * scale.  Consumers that sum entries must round each
/// product to a double before adding it (compare or store it first, as the
/// drop-negative accumulations do): a compiler that fuses c * scale into
/// the sum as one FMA would change the bits relative to summing a
/// materialised S.
struct CovarianceView {
  const linalg::Matrix& c;
  double scale;

  [[nodiscard]] std::size_t dim() const { return c.rows(); }
  [[nodiscard]] double operator()(std::size_t i, std::size_t j) const {
    return c(i, j) * scale;
  }
};

/// Abstract supplier of the unbiased sample covariance of an np-dimensional
/// observation vector (paper eq. (7)).
///
/// Thread-safety contract for implementations: all methods here are
/// logically const reads and must be safe to call concurrently *after*
/// view() has been called once; mutating operations (e.g.
/// WindowAccumulator::push) are single-writer and must not overlap reads.
class CovarianceSource {
 public:
  virtual ~CovarianceSource() = default;

  /// Observation dimension (number of paths np).
  [[nodiscard]] virtual std::size_t dim() const = 0;
  /// Number of samples backing the current statistics (the window m).
  [[nodiscard]] virtual std::size_t count() const = 0;

  /// Unbiased sample covariance between coordinates i and j.  Requires
  /// count() >= 2; sources that keep no covariances (stats::SnapshotRing)
  /// throw std::logic_error.
  [[nodiscard]] virtual double covariance(std::size_t i, std::size_t j) const = 0;

  /// Dense view of the full dim() x dim() covariance matrix S.  The first
  /// call may be expensive (the batch source computes S lazily); sources
  /// that cannot serve the dense S throw std::logic_error.
  [[nodiscard]] virtual CovarianceView view() const = 0;

  /// The count() snapshots the statistics describe, oldest first — what
  /// the keep-all closed form (core::augmented_normal_rhs) reads in place
  /// of S.  Valid until the next mutation.  Sources that keep no
  /// snapshots throw std::logic_error.
  [[nodiscard]] virtual SnapshotWindow snapshots() const {
    throw std::logic_error("covariance source keeps no snapshot window");
  }

  // -- Path churn (scenario engine, src/scenario/) ------------------------
  //
  // Sources that live under an evolving path set (dimensions activate,
  // retire, and re-activate while the window slides) report per-dimension
  // sample validity so consumers can exclude pairs whose statistics do not
  // yet cover the full window.  Fixed-dimension batch sources keep the
  // defaults: every coordinate is always backed by the whole window.

  /// Number of trailing window samples that are *valid* for coordinate i —
  /// samples observed since the coordinate was last activated, capped at
  /// count().  Inactive coordinates report 0.  A pair statistic cov(i, j)
  /// is *ready* for consumption exactly when both coordinates report
  /// samples() == count() (full-window backing); consumers must exclude
  /// pairs that are not ready — their accumulator entries mix
  /// pre-activation filler with real data.
  [[nodiscard]] virtual std::size_t samples(std::size_t i) const {
    (void)i;
    return count();
  }
};

/// Per-dimension activation bookkeeping shared by the churn-aware
/// accumulators (through stats::SlidingWindow).  The
/// readiness rule is load-bearing for batch/streaming parity and lives
/// only here: a dimension's statistics are valid for
/// min(pushes - activated_at, window_count) trailing samples, and a pair
/// enters an estimator only when both dimensions cover the full current
/// window.
class PathChurnLedger {
 public:
  explicit PathChurnLedger(std::size_t dim)
      : active_(dim, 1), activated_at_(dim, 0) {}

  [[nodiscard]] std::size_t dim() const { return active_.size(); }
  [[nodiscard]] bool active(std::size_t i) const { return active_[i] != 0; }

  /// Marks dimension i active from the next push on (no-op when already
  /// active); `pushes` is the owner's total push count so far.
  void activate(std::size_t i, std::size_t pushes) {
    if (active_[i]) return;
    active_[i] = 1;
    activated_at_[i] = pushes;
  }
  void retire(std::size_t i) { active_[i] = 0; }
  /// Appends one dimension, active with zero samples.
  void add_dim(std::size_t pushes) {
    active_.push_back(1);
    activated_at_.push_back(pushes);
  }

  /// Valid trailing samples of dimension i given the owner's push count
  /// and current window fill.
  [[nodiscard]] std::size_t samples(std::size_t i, std::size_t pushes,
                                    std::size_t count) const {
    if (!active_[i]) return 0;
    return std::min(pushes - activated_at_[i], count);
  }
  [[nodiscard]] bool pair_ready(std::size_t i, std::size_t j,
                                std::size_t pushes, std::size_t count) const {
    if (count == 0) return false;
    return samples(i, pushes, count) == count &&
           samples(j, pushes, count) == count;
  }

  /// Checkpoint hooks (io/checkpoint.hpp): the ledger is pure state, so
  /// save → restore reproduces samples()/pair_ready() exactly.  restore
  /// throws io::CheckpointError(kMismatch) when the serialized dimension
  /// differs from dim().
  void save_state(io::CheckpointWriter& writer) const;
  void restore_state(io::CheckpointReader& reader);

 private:
  std::vector<std::uint8_t> active_;
  std::vector<std::size_t> activated_at_;  // pushes at last activation
};

/// Batch implementation over a snapshot window: the centred snapshots
/// behind the CovarianceSource interface.
class BatchCovarianceSource final : public CovarianceSource {
 public:
  /// Centres `y` and owns the result.  `threads` caps the blocked SYRK
  /// worker count when view() materialises S (0 = library default).
  explicit BatchCovarianceSource(const SnapshotMatrix& y,
                                 std::size_t threads = 0);

  [[nodiscard]] std::size_t dim() const override { return centered_.dim(); }
  [[nodiscard]] std::size_t count() const override {
    return centered_.count();
  }
  [[nodiscard]] double covariance(std::size_t i, std::size_t j) const override {
    return centered_.covariance(i, j);
  }
  /// {S, 1.0}, S built by the blocked SYRK kernel on first use.
  [[nodiscard]] CovarianceView view() const override;
  [[nodiscard]] SnapshotWindow snapshots() const override {
    return centered_.window();
  }

 private:
  CenteredSnapshots centered_;
  std::size_t threads_;
  mutable std::optional<linalg::Matrix> cached_;  // lazily built S
};

}  // namespace losstomo::stats

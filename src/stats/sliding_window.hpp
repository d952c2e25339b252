// SlidingWindow — the snapshot window every streaming accumulator runs on.
//
// The monitor's accumulators differ only in what they keep beside the
// window: stats::SnapshotRing keeps nothing (the keep-all closed form
// reads the ring itself), stats::StreamingMoments the dense centred
// cross-products C, core::PairMoments C restricted to the sharing pairs.
// Everything else is this value type: the ring of the last `window`
// snapshots, the running means, the Youngs–Cramer sequencing, the
// drift-refresh cadence and the per-path churn ledger.  All three derive
// from stats::WindowAccumulator, which owns the window and serves the
// reads and the churn bookkeeping that only the window answers.
//
//   retire y_old:  dr = y_old - mean;  mean -= dr / (n-1);
//                  wr = -n/(n-1)
//   add y:         da = y - mean;      mean += da / n;
//                  wa = (n-1)/n
//   fold:          C += wr * dr dr^T + wa * da da^T
//
// The means never depend on C, so a push settles both deltas and weights
// first and then hands the owner one kernel call, `fold(wr, wa)`, that
// applies both rank-1 terms in a single sweep over C.  Per entry the fold
// performs exactly the two updates of a retire pass followed by an add
// pass, in that order, so it is bit-identical to them.  wr == 0.0 means
// the push retired nothing (warm-up): the kernel applies the add term only
// and must not read retire_delta().  The second kernel, `refresh()`, is
// the periodic exact recompute and starts with refresh_means().  Both are
// template arguments, so a push costs no indirect call.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>

#include "linalg/matrix.hpp"
#include "stats/covariance_source.hpp"
#include "stats/moments.hpp"

namespace losstomo::stats {

struct StreamingMomentsOptions {
  /// Sliding-window length (the paper's m); once full, every push retires
  /// the oldest snapshot.
  std::size_t window = 50;
  /// Full recompute cadence in pushes (drift bound); 0 = 2 * window.
  std::size_t refresh_every = 0;
  /// Worker threads for the cross-product fold and the refresh
  /// (0 = library default).  Results are bit-identical at any count.
  std::size_t threads = 0;
};

class SlidingWindow {
 public:
  /// Throws std::invalid_argument for window < 2.
  SlidingWindow(std::size_t dim, StreamingMomentsOptions options);

  /// Folds y (size dim(), else std::invalid_argument) into the window,
  /// retiring the oldest snapshot first when it is full; calls
  /// fold(wr, wa) once (not at all for the first snapshot, which has no
  /// cross-product) and refresh() when the cadence is due.
  template <typename Fold, typename Refresh>
  void push(std::span<const double> y, Fold&& fold, Refresh&& refresh) {
    if (y.size() != dim_) throw std::invalid_argument("snapshot size != dim");
    const double wr = count_ == options_.window ? retire_oldest() : 0.0;
    if (const double wa = add(y); count_ > 1) fold(wr, wa);
    if (++since_refresh_ >= options_.refresh_every) refresh();
  }

  /// First step of a refresh: restarts the cadence, counts the refresh and
  /// recomputes the means from the ring in logical (oldest-to-newest)
  /// order, so the result is independent of the ring head.  Returns false
  /// on an empty window (no cross-products to recompute).
  bool refresh_means();

  /// The l-th oldest retained snapshot (l < count()).
  [[nodiscard]] std::span<const double> sample(std::size_t l) const {
    return ring_.sample((head_ + l) % options_.window);
  }
  /// The retained snapshots as a raw window over the ring, oldest first.
  [[nodiscard]] SnapshotWindow snapshots() const {
    return {.ring = ring_.flat(), .dim = dim_, .capacity = options_.window,
            .count = count_, .head = head_};
  }

  // Path churn (stats::PathChurnLedger rule; range-checked).
  void activate(std::size_t i);
  void retire(std::size_t i);
  /// Appends `count` dimensions with an all-zero ring history (exactly the
  /// state the incremental updates expect); returns the first new index.
  std::size_t grow(std::size_t count);
  [[nodiscard]] bool active(std::size_t i) const { return churn_.active(i); }
  [[nodiscard]] std::size_t samples(std::size_t i) const {
    return churn_.samples(i, pushes_, count_);
  }
  [[nodiscard]] bool pair_ready(std::size_t i, std::size_t j) const {
    return churn_.pair_ready(i, j, pushes_, count_);
  }

  [[nodiscard]] std::size_t dim() const { return dim_; }
  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] std::size_t window() const { return options_.window; }
  [[nodiscard]] std::size_t threads() const { return options_.threads; }
  [[nodiscard]] std::size_t pushes() const { return pushes_; }
  [[nodiscard]] std::size_t refreshes() const { return refreshes_; }
  [[nodiscard]] const linalg::Vector& means() const { return mean_; }
  /// y_old - mean of the snapshot the last push retired (valid inside
  /// fold only when wr != 0).
  [[nodiscard]] const linalg::Vector& retire_delta() const {
    return retire_delta_;
  }
  /// y - mean of the snapshot the last push added.
  [[nodiscard]] const linalg::Vector& add_delta() const { return add_delta_; }

  /// Writes the churn ledger, ring, cursors, cadence counters and means
  /// (not the delta scratches) — the part of an accumulator section both
  /// accumulators share.
  void save_state(io::CheckpointWriter& writer) const;
  /// Parses what save_state wrote into a new window of this one's shape,
  /// throwing io::CheckpointError (kMismatch/kCorrupt) on disagreement.
  /// *this is untouched: the owner commits by assignment once its own
  /// fields have parsed too.
  [[nodiscard]] SlidingWindow restore_state(io::CheckpointReader& reader) const;

 private:
  double retire_oldest();
  double add(std::span<const double> y);

  std::size_t dim_;
  StreamingMomentsOptions options_;
  PathChurnLedger churn_;
  SnapshotMatrix ring_;  // window rows; head_ = oldest
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t pushes_ = 0;
  std::size_t since_refresh_ = 0;
  std::size_t refreshes_ = 0;
  linalg::Vector mean_;
  linalg::Vector retire_delta_;
  linalg::Vector add_delta_;
};

/// The monitor's accumulator slot: a covariance source fed one snapshot at
/// a time over an owned SlidingWindow.  The window answers dim/count/
/// samples/snapshots and the path-churn bookkeeping; implementations add
/// push, growth and checkpointing for whatever they keep beside it.
///
/// Path churn needs no arithmetic changes, only bookkeeping that marks,
/// per dimension, how many trailing ring slots carry real measurements
/// (stats::PathChurnLedger).  Callers keep pushing a deterministic filler
/// (conventionally 0) for inactive dimensions; a (re)activated dimension
/// becomes pair-ready once `window` further pushes have flushed every
/// filler slot out of the ring.
class WindowAccumulator : public CovarianceSource {
 public:
  /// Folds one snapshot into the window, retiring the oldest first when it
  /// is full.  Throws std::invalid_argument unless y.size() == dim().
  /// Single-writer: do not overlap push() with reads.
  virtual void push(std::span<const double> y) = 0;
  /// Appends `count` dimensions (active, zero samples, all-zero ring
  /// history — exactly the state the incremental updates expect) with one
  /// reallocation.  Returns the first new dimension's index.
  virtual std::size_t add_paths(std::size_t count) = 0;

  /// Checkpoint hooks (io/checkpoint.hpp): the window (ring, means, churn
  /// ledger, cadence counters — not the delta scratches) and whatever the
  /// implementation keeps beside it, in the implementation's own section,
  /// so a restored accumulator continues bit-identically.  restore_state
  /// targets an accumulator of the same shape and throws
  /// io::CheckpointError (kMismatch on shape disagreement, kTruncated/
  /// kCorrupt on a damaged section); on failure *this is unchanged.
  virtual void save_state(io::CheckpointWriter& writer) const = 0;
  virtual void restore_state(io::CheckpointReader& reader) = 0;

  // CovarianceSource reads the window answers:
  [[nodiscard]] std::size_t dim() const final { return window_.dim(); }
  [[nodiscard]] std::size_t count() const final { return window_.count(); }
  [[nodiscard]] std::size_t samples(std::size_t i) const final {
    return window_.samples(i);
  }
  /// The retained window's ring, oldest first (no copy).
  [[nodiscard]] SnapshotWindow snapshots() const final {
    return window_.snapshots();
  }

  /// Marks dimension i active from the next push on; its validity restarts
  /// at zero samples.  No-op when already active.
  void activate_path(std::size_t i) { window_.activate(i); }
  /// Marks dimension i inactive: samples(i) drops to 0 and every pair
  /// through i stops being ready.  Its entries keep updating with the
  /// pushed filler, so a later activate_path(i) needs no state repair.
  void retire_path(std::size_t i) { window_.retire(i); }
  [[nodiscard]] bool path_active(std::size_t i) const {
    return window_.active(i);
  }
  [[nodiscard]] bool pair_ready(std::size_t i, std::size_t j) const {
    return window_.pair_ready(i, j);
  }

  [[nodiscard]] std::size_t window() const { return window_.window(); }
  [[nodiscard]] bool full() const { return count() == window(); }
  [[nodiscard]] const linalg::Vector& means() const { return window_.means(); }
  /// Total snapshots ever pushed.
  [[nodiscard]] std::size_t pushes() const { return window_.pushes(); }
  /// Full recomputes performed so far (diagnostic for the drift tests).
  [[nodiscard]] std::size_t refreshes() const { return window_.refreshes(); }

 protected:
  WindowAccumulator(std::size_t dim, StreamingMomentsOptions options)
      : window_(dim, options) {}

  SlidingWindow window_;
};

/// The keep-all accumulator: the window's ring and nothing else.  The
/// keep-all Phase 1 reads only snapshots() (core::augmented_normal_rhs),
/// so no cross-products are kept: a push is O(dim), memory O(dim *
/// window), and the checkpoint holds the window alone.  The drift-refresh
/// cadence still recomputes the means, so the window's state matches the
/// other accumulators' push for push.
class SnapshotRing final : public WindowAccumulator {
 public:
  /// Throws std::invalid_argument for window < 2.
  SnapshotRing(std::size_t dim, StreamingMomentsOptions options)
      : WindowAccumulator(dim, options) {}

  void push(std::span<const double> y) override;
  std::size_t add_paths(std::size_t count) override {
    return window_.grow(count);
  }
  void save_state(io::CheckpointWriter& writer) const override;
  void restore_state(io::CheckpointReader& reader) override;

  /// Unsupported: the ring keeps no cross-products.  Both throw
  /// std::logic_error.
  [[nodiscard]] double covariance(std::size_t i, std::size_t j) const override;
  [[nodiscard]] CovarianceView view() const override;
};

}  // namespace losstomo::stats

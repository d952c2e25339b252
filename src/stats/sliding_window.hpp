// SlidingWindow — the snapshot window both streaming covariance
// accumulators run on.
//
// stats::StreamingMoments (dense C) and core::PairMoments (C restricted to
// the sharing pairs) differ only in how they store the centred
// cross-products.  Everything else is this value type: the ring of the
// last `window` snapshots, the running means, the Youngs–Cramer
// sequencing, the drift-refresh cadence and the per-path churn ledger.
//
//   add y:     delta = y - mean;  mean += delta / n;
//              C += ((n-1)/n) * delta delta^T
//   retire y:  delta = y - mean;  mean -= delta / (n-1);
//              C -= (n/(n-1))  * delta delta^T
//
// The window keeps `delta` and the means; the owner supplies the two
// kernels that touch C — `rank1(w)` (C += w * delta delta^T, called once
// per add/retire) and `refresh()` (the periodic exact recompute, which
// starts with refresh_means()).  The kernels are template arguments, so a
// push costs no indirect call.
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
  /// Worker threads for the rank-1 updates and the refresh
  /// (0 = library default).  Results are bit-identical at any count.
  std::size_t threads = 0;
};

class SlidingWindow {
 public:
  /// Throws std::invalid_argument for window < 2.
  SlidingWindow(std::size_t dim, StreamingMomentsOptions options);

  /// Folds y (size dim(), else std::invalid_argument) into the window,
  /// retiring the oldest snapshot first when it is full; calls rank1(w)
  /// once per retire/add and refresh() when the cadence is due.
  template <typename Rank1, typename Refresh>
  void push(std::span<const double> y, Rank1&& rank1, Refresh&& refresh) {
    if (y.size() != dim_) throw std::invalid_argument("snapshot size != dim");
    if (count_ == options_.window) rank1(retire_oldest());
    if (const double w = add(y); count_ > 1) rank1(w);
    if (++since_refresh_ >= options_.refresh_every) refresh();
  }

  /// push() over `rows` consecutive rows of a row-major block of
  /// rows * dim() doubles; bit-identical to the per-row loop.
  template <typename Rank1, typename Refresh>
  void push_block(std::span<const double> values, std::size_t rows,
                  Rank1&& rank1, Refresh&& refresh) {
    if (values.size() != rows * dim_) {
      throw std::invalid_argument("push_block size != rows * dim");
    }
    for (std::size_t r = 0; r < rows; ++r) {
      push(values.subspan(r * dim_, dim_), rank1, refresh);
    }
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
  /// y - mean of the snapshot the last rank1 call folded in or out.
  [[nodiscard]] const linalg::Vector& delta() const { return delta_; }

  /// Writes the churn ledger, ring, cursors, cadence counters and means
  /// (not the delta scratch) — the part of an accumulator section both
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
  void set_delta(std::span<const double> y);

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
  linalg::Vector delta_;
};

}  // namespace losstomo::stats

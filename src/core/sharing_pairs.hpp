// Sparse storage and enumeration of the *sharing* path pairs of a routing
// matrix — the pairs (i, j), i <= j, whose paths traverse at least one
// common link.
//
// The Phase-1 drop-negative policy needs exactly these pairs: every sharing
// pair contributes one covariance equation, and a pair that shares nothing
// contributes an all-zero row that carries no information.  The seed
// enumeration visited every one of the np(np+1)/2 pairs and intersected
// their link lists — O(np^2) scans regardless of how sparse the sharing
// structure is, which blocks 10k+ path overlays.  The structures here visit
// only pairs that actually share a link, discovered through the transpose
// incidence (column lists): path j is a candidate partner of path i iff j
// appears in the path list of some link of i.
//
//  * PartnerFinder — stamp-based candidate discovery, O(sum over links of i
//    of |paths(link)|) per row plus a sort; no allocation per call.  The
//    chunk-parallel SharingPairStore::build runs one per worker.
//  * SharingPairStore — CSR-style materialization for the drop-negative
//    normal equations (batch and streaming alike), which re-read the pairs
//    every refresh: per-path pair ranges, partner
//    indices, and the shared-link sublists, all in flat arrays.  Memory is
//    O(sharing pairs + shared-link entries) — the sharing structure's nnz —
//    never O(np^2).  Construction is chunk-parallel and deterministic
//    (results are identical at any thread count).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "linalg/sparse.hpp"

namespace losstomo::io {
class CheckpointWriter;
class CheckpointReader;
}  // namespace losstomo::io

namespace losstomo::core {

/// Reusable discovery of the sharing partners of one path.
///
/// Not thread-safe (owns a stamp array); use one instance per worker.
/// `r` and `columns` must outlive the finder.
class PartnerFinder {
 public:
  /// `columns` must be r.column_lists() (taken as a reference so several
  /// finders can share one copy).
  PartnerFinder(const linalg::SparseBinaryMatrix& r,
                const std::vector<std::vector<std::uint32_t>>& columns);

  /// Fills `out` (cleared first) with every j in [i, np) whose path shares
  /// at least one link with path i, in ascending order.  Complexity: the
  /// total path-list length of path i's links, plus O(k log k) for the k
  /// candidates found.
  void partners_of(std::size_t i, std::vector<std::uint32_t>& out);

 private:
  const linalg::SparseBinaryMatrix* r_;
  const std::vector<std::vector<std::uint32_t>>* columns_;
  std::vector<std::uint32_t> stamp_;  // last path id that touched each slot
  std::uint32_t tag_ = 0;
};

/// Flat CSR store of all sharing pairs with their shared-link sublists.
///
/// Pairs built by build() are indexed 0..pair_count() in (i asc, j asc)
/// order — the same order a row-major scan of the upper triangle produces,
/// so consumers that previously iterated all pairs and skipped non-sharing
/// ones see an identical sequence.  Rows appended later by add_rows() (path
/// churn: a path joins the overlay after the store was built) keep their
/// pairs contiguous in their own row, with the *partner* index on either
/// side of the row index; the overall pair order stays deterministic —
/// independent of thread count — which is what the streaming reductions
/// need.
///
/// Thread-safety: the structural readers (for_pairs, links, partner, row
/// ranges) are safe to call concurrently once no mutator (add_rows,
/// set_row_live, first pairs_of_path call — it builds the reverse index
/// lazily) is running.  Mutation is single-writer.
class SharingPairStore {
 public:
  SharingPairStore() = default;

  /// Sentinel returned by find_pair for a pair the store does not hold.
  static constexpr std::size_t kNoPair =
      std::numeric_limits<std::size_t>::max();

  /// Enumerates the sharing structure of `r`.  Work is proportional to the
  /// sharing pairs present (candidate discovery + one sorted intersection
  /// per sharing pair), parallel over path chunks; the result is identical
  /// at any `threads` (0 = library default).
  static SharingPairStore build(const linalg::SparseBinaryMatrix& r,
                                std::size_t threads = 0);

  /// Incrementally appends every row of `r` beyond path_count(), in row
  /// order; every earlier row must match what the store was built from.
  /// Each new row's pairs cover all partners j <= its index (including the
  /// diagonal), ascending — rows appended earlier in the batch are sharing
  /// partners of later ones, so one call equals a loop of one-row calls.
  /// `r` may also carry new trailing columns (a growing link universe);
  /// the transpose incidence extends to cover them.  Returns the index of
  /// the first appended pair.  Cost: O(appended nnz + discovered partners)
  /// — one pass, no rebuild, no per-row routing matrix copies.  Throws
  /// std::invalid_argument when `r` has fewer rows than the store.
  std::size_t add_rows(const linalg::SparseBinaryMatrix& r);

  /// Row liveness (path churn): a dead row's pairs stay in the store —
  /// indices are stable — but streaming consumers skip them.  A pair is
  /// live iff both of its paths' rows are live.  Rows start live.
  [[nodiscard]] bool row_live(std::size_t i) const {
    return row_live_[i] != 0;
  }
  void set_row_live(std::size_t i, bool live);
  [[nodiscard]] bool pair_live(std::size_t p, std::size_t i) const {
    return row_live_[i] != 0 && row_live_[partner_[p]] != 0;
  }

  /// Every pair index involving path i, ascending: its own row's range
  /// plus the pairs of other rows whose partner is i.  Builds a reverse
  /// (partner -> pairs) index on first call — that call is a mutator.
  void pairs_of_path(std::size_t i, std::vector<std::size_t>& out) const;

  /// Index of the stored pair (i, j), looked up in either orientation
  /// (O(log deg) binary search over both rows), or kNoPair when the paths
  /// share no link.
  [[nodiscard]] std::size_t find_pair(std::size_t i, std::size_t j) const;

  [[nodiscard]] std::size_t path_count() const {
    return row_offsets_.empty() ? 0 : row_offsets_.size() - 1;
  }
  /// Number of sharing pairs (including the diagonal (i, i) pairs).
  [[nodiscard]] std::size_t pair_count() const { return partner_.size(); }
  /// Total shared-link entries over all pairs (the store's nnz).
  [[nodiscard]] std::size_t shared_link_entries() const {
    return links_.size();
  }

  /// Pair index range [first, second) whose first path is i.
  [[nodiscard]] std::size_t row_begin(std::size_t i) const {
    return row_offsets_[i];
  }
  [[nodiscard]] std::size_t row_end(std::size_t i) const {
    return row_offsets_[i + 1];
  }
  /// Second path of pair p (the first path is the row p falls in).
  [[nodiscard]] std::uint32_t partner(std::size_t p) const {
    return partner_[p];
  }
  /// Sorted shared links of pair p.
  [[nodiscard]] std::span<const std::uint32_t> links(std::size_t p) const {
    return {links_.data() + link_offsets_[p],
            link_offsets_[p + 1] - link_offsets_[p]};
  }

  /// Calls fn(p, i, j, shared_links) for every pair index p in
  /// [begin, end) in ascending order, resolving the row path i via the
  /// row offsets (O(log np) once, then amortized O(1) per pair).  For
  /// build()-time pairs j >= i; for add_rows() pairs j may be on either
  /// side (consumers treat (i, j) symmetrically).
  template <typename Fn>
  void for_pairs(std::size_t begin, std::size_t end, Fn&& fn) const {
    if (begin >= end) return;
    // Row containing pair `begin`: the last offset <= begin.
    std::size_t lo = 0, hi = path_count();
    while (lo + 1 < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (row_offsets_[mid] <= begin) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    std::size_t i = lo;
    for (std::size_t p = begin; p < end; ++p) {
      while (row_offsets_[i + 1] <= p) ++i;
      fn(p, static_cast<std::uint32_t>(i), partner_[p], links(p));
    }
  }

  // -- Checkpointing (io/checkpoint.hpp) ----------------------------------
  //
  // Serializes the CSR arrays, the liveness flags, and the transpose
  // incidence; the reverse (partner -> pairs) index is NOT serialized —
  // it is a deterministic function of the rest and rebuilds lazily on the
  // first pairs_of_path call.  restore_state replaces the whole store (it
  // may target a default-constructed instance); on failure *this is
  // unchanged.
  void save_state(io::CheckpointWriter& writer) const;
  void restore_state(io::CheckpointReader& reader);

 private:
  void ensure_reverse_index() const;

  std::vector<std::size_t> row_offsets_;   // path_count + 1
  std::vector<std::uint32_t> partner_;     // partner path per pair
  std::vector<std::size_t> link_offsets_;  // pair_count + 1
  std::vector<std::uint32_t> links_;       // concatenated shared-link lists
  std::vector<std::uint8_t> row_live_;     // per path
  // Transpose incidence of the routing matrix the store was built from,
  // maintained by add_rows; powers incremental partner discovery.
  std::vector<std::vector<std::uint32_t>> columns_;
  // Lazily built: pair ids where the path appears as the *partner* (its
  // own-row pairs are already contiguous via row_offsets_).
  mutable std::vector<std::vector<std::size_t>> partner_pairs_;
  mutable bool reverse_built_ = false;
};

}  // namespace losstomo::core

// Phase 1 of LIA: estimating the link variances v from end-to-end snapshots
// (paper §5.1).
//
// The moment system Sigma* = A v is solved by least squares.  Three solver
// backends are provided:
//  * kDenseQr      — materialise A, drop rows with negative sample
//                    covariance (the paper's policy), Householder QR.
//                    Exact paper method; only viable for small path sets.
//  * kNormal       — normal equations G v = h over the kept pair
//                    equations: pairwise over the sharing pairs
//                    (drop-negative policy), or in closed form from the
//                    co-traversal Gram matrix (keep-all policy, scales to
//                    tens of thousands of paths without materialising the
//                    np(np+1)/2-row system).
//  * kNnls         — non-negative least squares on the normal equations;
//                    enforces v >= 0 by construction (extension, ablated in
//                    bench/ablation_estimator).
// kAuto picks per problem size; sampling-noise negatives in the LS solution
// are clamped to zero and counted.
//
// G and h have one producer, StreamingNormalEquations: a batch system is a
// fresh instance's first refresh() over the centred snapshots, and a
// monitor's is the same instance refreshed tick after tick.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/sharing_pairs.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "stats/covariance_source.hpp"
#include "stats/moments.hpp"

namespace losstomo::core {

enum class VarianceMethod {
  kAuto,
  kDenseQr,
  kNormal,
  kNnls,
};

enum class NegativeCovariancePolicy {
  kAuto,  // drop when the pairwise pass is affordable, else keep
  kDrop,  // paper §5.1: "we ignore equations with sigma_ii' < 0"
  kKeep,  // keep every pair equation (enables the closed-form fast path)
};

struct VarianceOptions {
  VarianceMethod method = VarianceMethod::kAuto;
  NegativeCovariancePolicy negatives = NegativeCovariancePolicy::kAuto;
  /// Largest dense A (in doubles) the kDenseQr backend may build.
  std::size_t dense_entry_cap = 20'000'000;
  /// Worker threads for the blocked covariance kernels and the parallel
  /// normal-equation accumulation.  0 = library default (LOSSTOMO_THREADS
  /// environment variable, else hardware concurrency).  Results are
  /// bit-identical at any thread count.
  std::size_t threads = 0;
  /// Drop-negative only: jitter-ladder rung (linalg::RegularizedCholesky
  /// escalation attempts; 1 = the base jitter) at which the solve abandons
  /// the regularized factorization and degrades through the pivoted
  /// rank-revealing fallback — pinning pivot-deficient links to zero
  /// variance, like the dense-QR pivoted fallback.  The default 2 keeps
  /// the benign base-jitter solve (Tikhonov-like minimum-norm behaviour,
  /// which measures better downstream on barely-singular instances) and
  /// pins only when the guard would have to *amplify* the jitter;
  /// 1 pins on any jitter; <= 0 never pins (the pre-PR-4 behaviour).
  /// Links with no kept equation at all never reach this knob — they are
  /// identity-pinned exactly, with no jitter involved.
  int rank_revealing_min_attempts = 2;
};

struct VarianceEstimate {
  linalg::Vector v;                  // per-link variance (>= 0)
  std::string method;                // backend actually used
  std::size_t equations_used = 0;    // pair equations entering the LS
  std::size_t equations_dropped = 0; // negative-covariance rows removed
  std::size_t negative_clamped = 0;  // LS outputs clamped up to 0
  double jitter_used = 0.0;          // Cholesky regularization, if any
  /// Drop-negative links solved as v = 0 instead of through the LS: links
  /// whose every pair equation was dropped (zero G diagonal — the system
  /// carries no information about them) plus, when equation drops leave G
  /// rank-deficient with positive diagonals, the pivot-deficient links of
  /// the rank-revealing fallback.  Replaces the old jitter-amplified
  /// solutions on singular systems.
  std::size_t links_pinned = 0;
};

/// The Phase-1 normal equations G v = h (G = A^T A restricted to the kept
/// pair equations, h = A^T Sigma*) before solving.
struct NormalEquations {
  linalg::Matrix g;
  linalg::Vector h;
  std::size_t used = 0;     // pair equations entering the system
  std::size_t dropped = 0;  // negative-covariance rows removed
};

/// The negative-covariance policy options.negatives resolves to for a
/// problem with np paths (kAuto drops up to 2000 paths).  Exposed so
/// streaming consumers mirror the batch resolution exactly.
bool resolve_negative_policy(const VarianceOptions& options, std::size_t np);

/// Assembles the covariance system without solving it: centres `y` and
/// returns the first refresh() of a fresh StreamingNormalEquations over it.
/// Honours options.negatives / threads exactly like estimate_link_variances
/// (options.method is ignored).  `gram`, when given, must be N = R^T R of
/// `r` (see the StreamingNormalEquations constructor).  Exposed for
/// benchmarking and diagnostics; the scalar references it is pinned against
/// live in tests/reference_estimator.hpp.
NormalEquations build_normal_equations(
    const linalg::SparseBinaryMatrix& r, const stats::SnapshotMatrix& y,
    const VarianceOptions& options = {},
    const linalg::CoTraversalGram* gram = nullptr);

/// Estimates link variances from m snapshots of the path observations.
/// `y` must have dim() == r.rows() and count() >= 2.  `gram`, when given,
/// must be N = R^T R of `r`: a keep-all solve then assembles G from it
/// instead of rebuilding N (core::Lia passes the N it holds).
VarianceEstimate estimate_link_variances(
    const linalg::SparseBinaryMatrix& r, const stats::SnapshotMatrix& y,
    const VarianceOptions& options = {},
    const linalg::CoTraversalGram* gram = nullptr);

/// Incrementally maintained Phase-1 normal equations for monitoring loops.
///
/// Two policies, two incremental strategies:
///  * keep-all: G = A^T A depends only on the routing matrix, so it is
///    assembled at construction, the Cholesky factorization is computed on
///    the first solve(), and every subsequent solve() is O(nc^2).  refresh()
///    reads only the source's snapshot window (CovarianceSource::
///    snapshots()) and rebuilds h by the closed form in
///    O(m (np + nnz(r))) — it never reads S or the cross-products C;
///  * drop-negative: the sharing pairs live in a SharingPairStore built
///    *lazily* on the first refresh() (chunk-parallel, memory proportional
///    to the sharing structure — see core/sharing_pairs.hpp), so
///    constructing a monitor on a 10k+ path overlay costs nothing until
///    streaming actually starts.  Each refresh() re-reads every pair's
///    covariance and rebuilds h; only pairs whose drop decision flipped
///    touch G (exact integer +/-1 counts, so G always equals a
///    from-scratch accumulation over the kept pairs, and its diagonal is
///    each link's kept-pair coverage).  solve() hands G and h to the batch
///    solve's tail (the one estimate_link_variances runs): zero diagonals
///    pinned, a fresh RegularizedCholesky with the relative pivot floor,
///    the jitter ladder and the rank-revealing fallback.  One
///    factorization per solve, so a streaming solve *is* the batch solve
///    on the same G and h.
///
/// Under drop-negative, refresh() rebuilds h from the source's current
/// covariance matrix — cost proportional to the sharing structure,
/// independent of the window length.  build_normal_equations is a fresh
/// instance's first refresh(), so either way solve() yields the same
/// clamped estimate as estimate_link_variances on an equal-valued window
/// (methods kAuto and kNormal only — the constructors throw
/// std::invalid_argument for kDenseQr and kNnls, whose callers must use
/// the batch path).
///
/// Thread-safety: refresh() parallelizes internally (bit-identical at any
/// VarianceOptions::threads); concurrent calls on one instance are not
/// supported.
class StreamingNormalEquations {
 public:
  /// O(nc^2) for keep-all (Gram assembly); O(nnz(r)) copy for
  /// drop-negative (the pair store is deferred to the first refresh).
  /// Keep-all assembles G from `gram` when given — it must be N = R^T R of
  /// `r`, and is read only here — and from a fresh N otherwise;
  /// drop-negative ignores it.
  StreamingNormalEquations(const linalg::SparseBinaryMatrix& r,
                           const VarianceOptions& options = {},
                           const linalg::CoTraversalGram* gram = nullptr);

  /// Drop-negative with an externally owned (shared) pair store — the
  /// configuration the pair-indexed covariance accumulator
  /// (core::PairMoments) uses, so refresh() reads each pair's covariance by
  /// its store index in O(1).  `store` must enumerate exactly the pairs of
  /// `r` and stay alive; the resolved policy must be drop-negative (throws
  /// std::invalid_argument otherwise).
  StreamingNormalEquations(const linalg::SparseBinaryMatrix& r,
                           const VarianceOptions& options,
                           std::shared_ptr<SharingPairStore> store);

  /// Recomputes h (and the sign-flipped parts of G under drop-negative):
  /// from the source's snapshot window under keep-all, from its current
  /// covariance matrix under drop-negative.
  /// Under drop-negative a pair enters the system only when it is live
  /// (both paths' store rows live), ready (source.samples() covers the
  /// full window for both paths — path-churn warm-up), and its covariance
  /// is non-negative; skipped pairs count neither used nor dropped, so the
  /// counts match a batch accumulation over the live-and-ready submatrix.
  const NormalEquations& refresh(const stats::CovarianceSource& source);

  // -- Path churn (scenario engine, src/scenario/) ------------------------
  //
  // Dimension changes never shrink G: it stays nc x nc, and a link whose
  // every pair equation is gone keeps a zero row and column, which the
  // solve pins to v = 0 exactly as the batch solve does.
  // Drop-negative only (throws std::logic_error under keep-all).

  /// Marks a path's pairs live/dead.  Going dead immediately flips its
  /// kept pairs out of G (exact integer updates).  Builds the lazy pair
  /// store if needed.
  void set_path_live(std::size_t path, bool live);

  /// Registers `count` appended paths (the trailing rows of `r`; earlier
  /// rows must be unchanged) in one step.  Their pairs join the store
  /// dropped — they enter G through refresh() once the covariance source
  /// reports them ready.  With a shared store this is the call that grows
  /// it: invoke BEFORE PairMoments::add_paths.  Rows referencing new links
  /// require a grow_links() call first (r.cols() must equal the current
  /// link count; throws std::invalid_argument otherwise).
  void add_paths(const linalg::SparseBinaryMatrix& r, std::size_t count);

  /// Grows the link universe by `count` fresh trailing columns.  Fresh
  /// links have no kept pair equation yet, so G and h widen with zeros
  /// (the solve pins them) until warmed pairs cover them.
  /// Drop-negative only (throws std::logic_error under keep-all).
  void grow_links(std::size_t count);

  /// Solves the current system for v: the keep-all factor, computed once,
  /// or a fresh drop-negative factorization.  Requires a refresh() since
  /// construction or restore_state (throws std::logic_error otherwise).
  [[nodiscard]] VarianceEstimate solve();

  [[nodiscard]] const NormalEquations& system() const { return sys_; }
  [[nodiscard]] bool drop_negative() const { return drop_negative_; }
  /// Cholesky factorizations performed so far: 1 after the first solve
  /// under keep-all, one per solve under drop-negative.
  [[nodiscard]] std::size_t refactorizations() const {
    return refactorizations_;
  }
  // perfbench reads it; ROADMAP item 2's benchmark change removes it.
  [[nodiscard]] std::size_t rank1_updates() const { return 0; }
  /// Fresh virtual links absorbed mid-run (grow_links).
  [[nodiscard]] std::size_t links_grown() const { return links_grown_; }
  /// Links no kept pair equation covers (zero G diagonal under
  /// drop-negative); the solve pins them to v = 0.  Always 0 under
  /// keep-all.  O(nc).
  [[nodiscard]] std::size_t links_pinned() const;
  // perfbench reads it; ROADMAP item 2's benchmark change removes it.
  [[nodiscard]] std::size_t downdate_fallbacks() const { return 0; }
  // perfbench reads it; ROADMAP item 2's benchmark change removes it.
  [[nodiscard]] std::size_t refine_iterations() const { return 0; }
  /// Pair drop-decision flips applied to G since the last solve()
  /// (refresh flips plus the kept pairs of paths gone dead).
  [[nodiscard]] std::size_t pending_flips() const { return flips_; }
  /// The sharing-pair store: built lazily at the first drop-negative
  /// refresh (or shared from construction); nullptr before that and always
  /// under keep-all.
  [[nodiscard]] const SharingPairStore* pair_store() const {
    return pairs_.get();
  }

  // -- Checkpointing (io/checkpoint.hpp) ----------------------------------
  //
  // Serializes only the state a refresh() cannot rebuild: the kept-pair
  // flags (and an owned pair store), the counters, and under keep-all the
  // cached RegularizedCholesky factor (restored via from_state — NO
  // refactorization on resume).  G, h and the used/dropped counts are
  // derived: keep-all G is rebuilt from the routing matrix by the
  // constructor, drop-negative G is rebuilt on restore as the integer sum
  // over the kept pairs, and h with its counts comes back at the next
  // refresh(), which a restored instance needs before solve().  A
  // drop-negative instance holds no factor: a restored one factorizes at
  // its next solve, as the uninterrupted one does.  `store_external` is
  // true when the pair store is owned by someone else (the monitor's
  // shared PairMoments store) and serialized there; otherwise an owned
  // store is embedded.  The routing matrix itself (routing_) is NOT
  // serialized — restore_state targets an instance freshly constructed
  // over the same (already restored) routing matrix and store
  // configuration, and throws io::CheckpointError(kMismatch) on any shape
  // or policy disagreement, kCorrupt on a kept-pair flag other than 0 or 1
  // or a shared link outside the link universe.  On failure *this is
  // unchanged.
  void save_state(io::CheckpointWriter& writer, bool store_external) const;
  void restore_state(io::CheckpointReader& reader,
                     std::shared_ptr<SharingPairStore> shared_store);

 private:
  void ensure_store();
  void apply_flips(const std::vector<std::size_t>& flips);

  VarianceOptions options_;
  std::size_t np_ = 0;
  std::size_t nc_ = 0;
  bool drop_negative_ = false;
  bool refreshed_ = false;
  // The routing matrix: under keep-all the closed-form rhs folds paths
  // into links through it; under drop-negative it is retained only until
  // the pair store is built (kept current by add_paths while still lazy).
  std::optional<linalg::SparseBinaryMatrix> routing_;
  std::shared_ptr<SharingPairStore> pairs_;
  std::vector<std::uint8_t> pair_kept_;
  std::vector<std::size_t> path_pairs_scratch_;
  NormalEquations sys_;
  std::optional<linalg::RegularizedCholesky> factor_;  // keep-all only
  std::size_t refactorizations_ = 0;
  std::size_t links_grown_ = 0;
  std::size_t flips_ = 0;  // since the last solve
};

}  // namespace losstomo::core

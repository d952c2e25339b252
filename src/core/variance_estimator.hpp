// Phase 1 of LIA: estimating the link variances v from end-to-end snapshots
// (paper §5.1).
//
// The moment system Sigma* = A v is solved by least squares.  Three solver
// backends are provided:
//  * kDenseQr      — materialise A, drop rows with negative sample
//                    covariance (the paper's policy), Householder QR.
//                    Exact paper method; only viable for small path sets.
//  * kNormal       — normal equations G v = h accumulated either pairwise
//                    (exact drop-negative policy) or in closed form from
//                    the co-traversal Gram matrix (keep-all policy, scales
//                    to tens of thousands of paths without materialising
//                    the np(np+1)/2-row system).
//  * kNnls         — non-negative least squares on the normal equations;
//                    enforces v >= 0 by construction (extension, ablated in
//                    bench/ablation_estimator).
// kAuto picks per problem size; sampling-noise negatives in the LS solution
// are clamped to zero and counted.
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
  /// Streaming drop-negative only: cumulative rank-1 factor up/downdates
  /// (linalg::UpdatableCholesky) applied to the cached Cholesky factor
  /// before a full refactorization is forced, bounding floating-point
  /// drift of the incrementally maintained factor.  0 = automatic
  /// (4 * link count).
  std::size_t factor_update_cap = 0;
  /// Streaming drop-negative only: pending flips (pair sign flips + churn
  /// validity flips + pin border steps) a single solve will absorb as
  /// rank-1 factor steps; beyond it the factor deliberately goes stale and
  /// the solve leans on PCG refinement instead.  0 = automatic
  /// (nc / 4 + 1 — past that, rank-1 work stops beating a
  /// refactorization).  Deployments that churn in large bursts but want
  /// the factor always current (e.g. to keep solve latency flat) can
  /// raise it.
  std::size_t factor_flip_threshold = 0;
  /// Streaming drop-negative PCG refinement budget per solve (a
  /// stale/drifted cached factor polished against the exact
  /// integer-maintained G); <= 0 disables refinement entirely, so every
  /// inexact-factor tick refactorizes (the pre-PR-3 behaviour).
  int refine_max_iterations = 40;
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

/// Assembles the covariance system without solving it — the O(np^2) hot
/// path the blocked kernels accelerate.  Honours options.negatives /
/// threads exactly like estimate_link_variances (options.method is
/// ignored).  Exposed for benchmarking and diagnostics; the scalar
/// references it is pinned against live in tests/reference_estimator.hpp.
NormalEquations build_normal_equations(const linalg::SparseBinaryMatrix& r,
                                       const stats::SnapshotMatrix& y,
                                       const VarianceOptions& options = {});

/// Same system assembled from an abstract CovarianceSource (batch wrapper
/// or streaming accumulator).
NormalEquations build_normal_equations(const linalg::SparseBinaryMatrix& r,
                                       const stats::CovarianceSource& source,
                                       const VarianceOptions& options = {});

/// Estimates link variances from m snapshots of the path observations.
/// `y` must have dim() == r.rows() and count() >= 2.
VarianceEstimate estimate_link_variances(const linalg::SparseBinaryMatrix& r,
                                         const stats::SnapshotMatrix& y,
                                         const VarianceOptions& options = {});

/// Estimates link variances from a CovarianceSource; the entry point
/// Lia::learn(source) uses.  `source.dim()` must equal r.rows().
VarianceEstimate estimate_link_variances(const linalg::SparseBinaryMatrix& r,
                                         const stats::CovarianceSource& source,
                                         const VarianceOptions& options = {});

/// Incrementally maintained Phase-1 normal equations for monitoring loops.
///
/// Two policies, two incremental strategies:
///  * keep-all: G = A^T A depends only on the routing matrix, so it is
///    assembled at construction, the Cholesky factorization is computed on
///    the first solve(), and every subsequent solve() is O(nc^2).  refresh()
///    reads only the source's snapshot window (CovarianceSource::
///    snapshots()) and rebuilds h by the closed form in
///    O(m (np + nnz(r))) — it never reads S or the cross-products C, so
///    its h equals the batch estimator's on the same window bit for bit;
///  * drop-negative: the sharing pairs live in a SharingPairStore built
///    *lazily* on the first refresh() (chunk-parallel, memory proportional
///    to the sharing structure — see core/sharing_pairs.hpp), so
///    constructing a monitor on a 10k+ path overlay costs nothing until
///    streaming actually starts.  Each refresh() re-reads every pair's
///    covariance; only pairs whose drop decision flipped touch G (exact
///    integer +/-1 counts).  The cached Cholesky factor is reconciled at
///    solve() time against the *pending* flip set (pairs whose state
///    differs from the factor; a pair that flips back cancels out), in
///    one of three modes:
///      1. small pending set (<= nc/4): one rank-1 up/downdate per flip
///         (linalg::UpdatableCholesky), O((nc - j0)^2) each;
///      2. large pending set (sign-flip storms — thousands of
///         near-zero-covariance pairs oscillate every tick): the factor
///         stays deliberately stale and the solve runs iterative
///         refinement against the exact G through it, O(nc^2) per step —
///         the state difference vs the factor saturates rather than
///         grows, so a recent factor keeps preconditioning G well;
///      3. full refactorization, only when a downdate would lose positive
///         definiteness, refinement stops contracting, or the cumulative
///         rank-1 count reaches VarianceOptions::factor_update_cap
///         (drift bound).
///
/// Under drop-negative, refresh() rebuilds h from the source's current
/// covariance matrix — cost proportional to the sharing structure,
/// independent of the window length.  Either way solve() yields the same
/// clamped estimate as estimate_link_variances on an equal-valued source
/// to refinement accuracy (residual <= 1e-13 * ||h||; <= 1e-10 parity observed on
/// well-conditioned instances, and bit-identical on freshly refactorized
/// ticks; methods kAuto and kNormal only — the constructors throw
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
  StreamingNormalEquations(const linalg::SparseBinaryMatrix& r,
                           const VarianceOptions& options = {});

  /// Drop-negative with an externally owned (shared) pair store — the
  /// configuration the pair-indexed covariance accumulator
  /// (core::PairMoments) uses, so refresh() reads each pair's covariance by
  /// its store index in O(1).  `store` must enumerate exactly the pairs of
  /// `r` and stay alive; the resolved policy must be drop-negative (throws
  /// std::invalid_argument otherwise).
  StreamingNormalEquations(const linalg::SparseBinaryMatrix& r,
                           const VarianceOptions& options,
                           std::shared_ptr<SharingPairStore> store);

  /// Recomputes h (and the sign-flipped parts of G and the cached factor
  /// under drop-negative): from the source's snapshot window under
  /// keep-all, from its current covariance matrix under drop-negative.
  /// Under drop-negative a pair enters the system only when it is live
  /// (both paths' store rows live), ready (source.samples() covers the
  /// full window for both paths — path-churn warm-up), and its covariance
  /// is non-negative; skipped pairs count neither used nor dropped, so the
  /// counts match a batch accumulation over the live-and-ready submatrix.
  const NormalEquations& refresh(const stats::CovarianceSource& source);

  // -- Path churn (scenario engine, src/scenario/) ------------------------
  //
  // Dimension changes never resize the factor: G stays nc x nc, and a link
  // whose every pair equation is gone is *identity-pinned* (unit diagonal,
  // zero elsewhere — its variance solves to exactly 0).  A path join or
  // leave therefore reaches the cached factor as a batch of rank-1
  // +/- e_S e_S^T pair steps plus +/- e_a e_a^T pin/unpin steps — the
  // bordered-update realization: pinned links sit as identity borders of
  // the live block and are bordered in or out by rank-1 work, with the
  // usual stale-factor PCG and full-refactorization fallbacks.
  // Drop-negative only (throws std::logic_error under keep-all).

  /// Marks a path's pairs live/dead.  Going dead immediately flips its
  /// kept pairs out of G (exact integer updates; the factor reconciles at
  /// the next solve).  Builds the lazy pair store if needed.
  void set_path_live(std::size_t path, bool live);

  /// Registers one appended path (row r.rows()-1 of the grown routing
  /// matrix; earlier rows must be unchanged).  Its pairs join the store
  /// dropped — they enter G through refresh() once the covariance source
  /// reports them ready.  With a shared store this is the call that grows
  /// it: invoke BEFORE PairMoments::add_path.
  void add_path(const linalg::SparseBinaryMatrix& r);

  /// Batched growth: registers `count` appended paths (the trailing rows
  /// of `r`; earlier rows must be unchanged) in one step — the pair store
  /// grows once, state-identical to `count` add_path calls but without the
  /// per-row bookkeeping resizes.  Rows referencing new links require a
  /// grow_links() call first (r.cols() must equal the current link count;
  /// throws std::invalid_argument otherwise).
  void add_paths(const linalg::SparseBinaryMatrix& r, std::size_t count);

  /// Grows the link universe by `count` fresh trailing columns.  Fresh
  /// links have no kept pair equation yet, so they enter identity-pinned:
  /// G becomes diag(G, I) exactly, and the cached factor follows by
  /// bordered identity growth (linalg::UpdatableCholesky::append_identity)
  /// — no refactorization, no rank-1 work.  Pairs covering the new links
  /// later unpin them through the usual refresh()/flip border steps.
  /// Drop-negative only (throws std::logic_error under keep-all).
  void grow_links(std::size_t count);

  /// Solves the current system for v, reusing the cached (possibly
  /// up/downdated) factorization while it is valid.  Requires a prior
  /// refresh().
  [[nodiscard]] VarianceEstimate solve();

  [[nodiscard]] const NormalEquations& system() const { return sys_; }
  [[nodiscard]] bool drop_negative() const { return drop_negative_; }
  /// Full Cholesky factorizations performed so far (1 after the first
  /// solve under keep-all; under drop-negative grows only on the fallback
  /// conditions listed above).
  [[nodiscard]] std::size_t refactorizations() const {
    return refactorizations_;
  }
  /// Rank-1 factor up/downdates applied so far (drop-negative only),
  /// including the pin/unpin border steps.
  [[nodiscard]] std::size_t rank1_updates() const { return rank1_updates_; }
  /// Pin/unpin border steps among rank1_updates() (links entering/leaving
  /// the identity-pinned state on the factor).
  [[nodiscard]] std::size_t pin_updates() const { return pin_updates_; }
  /// Fresh virtual links absorbed mid-run via bordered identity growth
  /// (grow_links), each entering pinned without a refactorization.
  [[nodiscard]] std::size_t links_grown() const { return links_grown_; }
  /// Links currently identity-pinned (no kept pair equation covers them).
  [[nodiscard]] std::size_t links_pinned() const { return pins_active_; }
  /// Failed downdates that forced a refactorization.
  [[nodiscard]] std::size_t downdate_fallbacks() const {
    return downdate_fallbacks_;
  }
  /// Iterative-refinement steps run against stale or drifted factors.
  [[nodiscard]] std::size_t refine_iterations() const {
    return refine_iterations_;
  }
  /// Pairs whose kept/dropped state currently differs from the factor.
  [[nodiscard]] std::size_t pending_flips() const { return pending_live_; }
  /// The sharing-pair store: built lazily at the first drop-negative
  /// refresh (or shared from construction); nullptr before that and always
  /// under keep-all.
  [[nodiscard]] const SharingPairStore* pair_store() const {
    return pairs_.get();
  }

  // -- Checkpointing (io/checkpoint.hpp) ----------------------------------
  //
  // Serializes every piece of mutable state the incremental machinery
  // depends on: the integer-maintained G and rhs, the cached
  // UpdatableCholesky factor (restored via from_state — NO refactorization
  // on resume), the pending pair/pin flip queues with their membership
  // marks, the kept-pair flags, link coverage and pin states, and all
  // counters.  `store_external` is true when the pair store is owned by
  // someone else (the monitor's shared PairMoments store) and serialized
  // there; otherwise an owned store is embedded.  The routing matrix
  // itself (routing_) is NOT serialized — restore_state targets an
  // instance freshly constructed over the same (already restored) routing
  // matrix and store configuration, and throws
  // io::CheckpointError(kMismatch) on any shape or policy disagreement.
  // On failure *this is unchanged.
  void save_state(io::CheckpointWriter& writer, bool store_external) const;
  void restore_state(io::CheckpointReader& reader,
                     std::shared_ptr<SharingPairStore> shared_store);

 private:
  void ensure_store();
  void apply_flips(const std::vector<std::size_t>& flips);
  void note_pin_change(std::size_t link);
  bool reconcile_factor();
  void refactorize();
  bool refine(linalg::Vector& v);

  VarianceOptions options_;
  std::size_t np_ = 0;
  std::size_t nc_ = 0;
  bool drop_negative_ = false;
  bool refreshed_ = false;
  // The routing matrix: under keep-all the closed-form rhs folds paths
  // into links through it; under drop-negative it is retained only until
  // the pair store is built (kept current by add_path while still lazy).
  std::optional<linalg::SparseBinaryMatrix> routing_;
  std::shared_ptr<SharingPairStore> pairs_;
  std::vector<std::uint8_t> pair_kept_;
  linalg::Vector flip_scratch_;  // shared-link indicator for up/downdates
  // Pairs whose kept state diverged from the factor: queue + membership
  // marks (an unmarked queue entry was cancelled by a flip-back).
  std::vector<std::size_t> pending_;
  std::vector<std::uint8_t> pending_mark_;
  std::size_t pending_live_ = 0;
  // Identity pinning of links with no kept pair equation: kept-pair
  // coverage count per link, the pin state reflected in G, and the pin
  // changes the factor has not absorbed yet (queue + marks, like pairs).
  std::vector<std::uint32_t> coverage_;
  std::vector<std::uint8_t> pinned_in_g_;
  std::vector<std::size_t> pin_pending_;
  std::vector<std::uint8_t> pin_pending_mark_;
  std::size_t pin_pending_live_ = 0;
  std::size_t pins_active_ = 0;
  std::vector<std::size_t> path_pairs_scratch_;
  NormalEquations sys_;
  bool factor_dirty_ = true;
  std::optional<linalg::UpdatableCholesky> factor_;
  std::size_t factor_updates_ = 0;  // rank-1 steps since last refactorization
  std::size_t refactorizations_ = 0;
  std::size_t rank1_updates_ = 0;
  std::size_t pin_updates_ = 0;
  std::size_t links_grown_ = 0;
  std::size_t downdate_fallbacks_ = 0;
  std::size_t refine_iterations_ = 0;
};

}  // namespace losstomo::core

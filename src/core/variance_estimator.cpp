#include "core/variance_estimator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/augmented_matrix.hpp"
#include "core/pair_moments.hpp"
#include "io/checkpoint.hpp"
#include "io/checkpoint_tags.hpp"
#include "linalg/nnls.hpp"
#include "linalg/qr.hpp"
#include "util/parallel.hpp"

namespace losstomo::core {

namespace {

// Largest path count for which kAuto resolves to the pairwise
// (drop-negative) accumulation; beyond it the closed form (keep-all),
// whose cost is independent of the number of path pairs.
constexpr std::size_t kPairwisePathCap = 2000;

// Streaming PCG refinement of a stale/drifted cached factor against the
// exact integer-maintained G.  Residual target relative to ||h||_inf:
// refinement stops once ||h - G v||_inf <= kRefineTolerance * ||h||_inf (a
// recomputed true residual within 10x of the target is accepted).  A step
// "contracts" when it multiplies the best residual seen by at most
// kRefineContraction; kRefineStallWindow consecutive non-contracting steps
// abort to the refactorization fallback.
constexpr double kRefineTolerance = 1e-13;
constexpr double kRefineContraction = 0.5;
constexpr int kRefineStallWindow = 5;

// Deterministic estimate of the pair-sharing structure: how many path
// pairs share at least one link (fraction f) and how many links a sharing
// pair shares on average.  Samples up to `kSamples` pairs on a fixed stride
// over the packed upper-triangle pair index — no RNG, no dependence on the
// thread count.
struct SharingEstimate {
  double fraction = 0.0;      // sharing pairs / all pairs
  double mean_shared = 0.0;   // avg |shared| over sharing samples
};

SharingEstimate estimate_sharing(const linalg::SparseBinaryMatrix& r) {
  const std::size_t np = r.rows();
  const std::size_t total = pair_count(np);
  constexpr std::size_t kSamples = 2048;
  const std::size_t stride = std::max<std::size_t>(1, total / kSamples);
  std::vector<std::uint32_t> shared;
  std::size_t samples = 0, sharing = 0, shared_links = 0;
  std::size_t i = 0;
  std::size_t row_base = 0;  // packed index of pair (i, i)
  for (std::size_t p = 0; p < total; p += stride) {
    while (p >= row_base + (np - i)) {
      row_base += np - i;
      ++i;
    }
    const std::size_t j = i + (p - row_base);
    linalg::intersect_sorted(r.row(i), r.row(j), shared);
    ++samples;
    if (!shared.empty()) {
      ++sharing;
      shared_links += shared.size();
    }
  }
  SharingEstimate est;
  if (samples > 0) {
    est.fraction = static_cast<double>(sharing) / static_cast<double>(samples);
  }
  if (sharing > 0) {
    est.mean_shared =
        static_cast<double>(shared_links) / static_cast<double>(sharing);
  }
  return est;
}

// Blocked/parallel pairwise accumulation over a CovarianceSource.  Two
// covariance strategies, chosen from the sampled sharing structure (a pure
// function of the problem, so the choice is reproducible):
//  * dense sharing — or any source that already holds S (streaming
//    accumulators): read S(i, j) per pair, removing the seed's O(m) inner
//    loop from every pair;
//  * sparse sharing on a batch source: most pairs carry no equation, so
//    both the covariances AND the pair visits themselves are wasted work —
//    candidate discovery through the column lists (core/sharing_pairs.hpp
//    PartnerFinder) enumerates only the pairs that share a link, and the
//    on-demand per-pair covariance runs for exactly those.  The visited
//    sharing pairs come back in the same (i asc, j asc) order the full
//    upper-triangle scan produced, so the accumulated sums are unchanged.
// Either way G/h are folded over path-row chunks with per-chunk partials;
// chunk boundaries depend only on the problem size, so the reduction order
// — and therefore the result — is bit-identical at any thread count.
//
// Caveat vs the scalar reference (tests/reference_estimator.hpp): under
// the matrix strategy a pair whose true covariance sits within an ulp of
// zero can round to the opposite sign than the scalar sum and flip its
// drop decision (one whole equation).  The parity guarantee therefore
// assumes no covariance is exactly at the zero boundary — sampling noise
// makes that measure-zero in practice.
NormalEquations accumulate_pairwise_blocked(const linalg::SparseBinaryMatrix& r,
                                            const stats::CovarianceSource& y,
                                            bool drop_negative,
                                            std::size_t threads) {
  const std::size_t np = r.rows();
  const std::size_t nc = r.cols();
  const std::size_t m = y.count();
  if (np == 0) {
    return NormalEquations{linalg::Matrix(nc, nc), linalg::Vector(nc, 0.0)};
  }
  const SharingEstimate sharing = estimate_sharing(r);
  // The full matrix pays off once a meaningful fraction of pairs would
  // otherwise run the O(m) scalar loop — or comes for free from the source.
  const bool use_matrix = sharing.fraction >= 0.125 || y.matrix_is_cheap();
  const linalg::Matrix* s = use_matrix ? &y.matrix() : nullptr;
  const std::span<const double> flat = use_matrix ? std::span<const double>{}
                                                  : y.centered_flat();

  // Balance chunk count against the per-chunk partial cost: each extra
  // chunk buys 1/chunks of the pair-loop work but costs an nc^2 partial
  // (copy-init + reduce).  All inputs are problem sizes or the
  // deterministic sharing sample, never the thread count.
  double row_len = 0.0;
  for (std::size_t i = 0; i < np; ++i) row_len += static_cast<double>(r.row(i).size());
  row_len /= static_cast<double>(std::max<std::size_t>(np, 1));
  const double pair_ops =
      static_cast<double>(pair_count(np)) *
      (2.0 * row_len +
       sharing.fraction * (sharing.mean_shared * sharing.mean_shared +
                           (use_matrix ? 1.0 : static_cast<double>(m))));
  const double chunk_overhead = 4.0 * static_cast<double>(nc) * static_cast<double>(nc);
  const std::size_t partial_bytes = nc * nc * sizeof(double) + nc * sizeof(double);
  const std::size_t budget_chunks = std::max<std::size_t>(
      1, (std::size_t{1} << 28) / std::max<std::size_t>(partial_bytes, 1));
  const std::size_t want_chunks = static_cast<std::size_t>(std::clamp(
      pair_ops / (8.0 * chunk_overhead), 1.0, 32.0));
  const std::size_t chunks = std::min({want_chunks, budget_chunks, np});

  // Sparse sharing: visit only the pairs that share a link, discovered
  // through the transpose incidence.  The column lists are shared across
  // chunks; each chunk owns its PartnerFinder (stamp array).
  const std::vector<std::vector<std::uint32_t>> columns =
      use_matrix ? std::vector<std::vector<std::uint32_t>>{}
                 : r.column_lists();

  const auto body = [&](NormalEquations& part, std::size_t i_begin,
                        std::size_t i_end) {
        std::vector<std::uint32_t> shared;
        std::optional<PartnerFinder> finder;
        std::vector<std::uint32_t> partners;
        if (!use_matrix) finder.emplace(r, columns);
        const auto accumulate = [&](std::size_t i, std::size_t j,
                                    const double* si) {
          linalg::intersect_sorted(r.row(i), r.row(j), shared);
          if (shared.empty()) return;
          double cov;
          if (use_matrix) {
            cov = si[j];
          } else if (!flat.empty()) {
            // On-demand covariance, identical to the scalar reference.
            cov = 0.0;
            const double* pi = flat.data() + i;
            const double* pj = flat.data() + j;
            for (std::size_t l = 0; l < m; ++l, pi += np, pj += np) {
              cov += *pi * *pj;
            }
            cov /= static_cast<double>(m - 1);
          } else {
            cov = y.covariance(i, j);
          }
          if (drop_negative && cov < 0.0) {
            ++part.dropped;
            return;
          }
          ++part.used;
          for (const auto a : shared) {
            part.h[a] += cov;
            for (const auto b : shared) part.g(a, b) += 1.0;
          }
        };
        for (std::size_t i = i_begin; i < i_end; ++i) {
          if (use_matrix) {
            const double* si = s->row(i).data();
            for (std::size_t j = i; j < np; ++j) accumulate(i, j, si);
          } else {
            finder->partners_of(i, partners);
            for (const auto j : partners) accumulate(i, j, nullptr);
          }
        }
  };

  NormalEquations acc{linalg::Matrix(nc, nc), linalg::Vector(nc, 0.0)};
  if (chunks <= 1) {
    body(acc, 0, np);
    return acc;
  }

  // Chunk boundaries balanced by *pair* count: row i carries np - i pairs,
  // so equal-width row ranges would load the first chunk with ~2x the
  // average work and cap parallel scaling.  Boundaries depend only on
  // (np, chunks) — the fixed reduction order below is untouched.
  std::vector<std::size_t> bounds(chunks + 1, np);
  bounds[0] = 0;
  {
    const double per_chunk =
        static_cast<double>(pair_count(np)) / static_cast<double>(chunks);
    std::size_t i = 0;
    double covered = 0.0;
    for (std::size_t c = 1; c < chunks; ++c) {
      const double target = per_chunk * static_cast<double>(c);
      while (i < np && covered < target) {
        covered += static_cast<double>(np - i);
        ++i;
      }
      bounds[c] = i;
    }
  }

  std::vector<NormalEquations> partials(chunks, acc);
  util::ThreadPool::global().run(
      chunks,
      [&](std::size_t c) { body(partials[c], bounds[c], bounds[c + 1]); },
      threads);
  acc = std::move(partials.front());
  for (std::size_t c = 1; c < chunks; ++c) {
    const NormalEquations& part = partials[c];
    auto& gd = acc.g.data();
    const auto& pd = part.g.data();
    for (std::size_t idx = 0; idx < gd.size(); ++idx) gd[idx] += pd[idx];
    for (std::size_t k = 0; k < acc.h.size(); ++k) acc.h[k] += part.h[k];
    acc.used += part.used;
    acc.dropped += part.dropped;
  }
  return acc;
}

// Closed-form accumulation keeping all equations (policy kKeep).  Both the
// normal matrix and the right-hand side are assembled in parallel inside
// core/augmented_matrix.cpp.
NormalEquations accumulate_closed_form(const linalg::SparseBinaryMatrix& r,
                                       const stats::CenteredSnapshots& y,
                                       std::size_t threads) {
  NormalEquations sys;
  const linalg::CoTraversalGram gram(r);
  sys.g = augmented_normal_matrix(gram, threads);
  sys.h = augmented_normal_rhs(y, r.column_lists(), threads);
  sys.used = pair_count(r.rows());
  return sys;
}

// Rank-revealing fallback for a drop-negative G left singular (or
// numerically so) by equation drops with every diagonal still positive:
// pivoted Cholesky identifies the well-conditioned link subset, the
// reduced SPD system is solved directly, and the pivot-deficient links are
// pinned to zero variance — the same degradation the dense-QR path gets
// from its pivoted fallback, instead of a jitter-amplified solution on the
// full singular system.  Deterministic: pivot selection depends only on G,
// which both the batch accumulation and the streaming integer maintenance
// produce exactly.
linalg::Vector solve_rank_revealing(const linalg::Matrix& g,
                                    const linalg::Vector& h,
                                    std::size_t& pinned) {
  const std::size_t n = g.rows();
  const linalg::PivotedCholesky pivoted(g);
  const std::size_t rank = pivoted.rank();
  const auto& perm = pivoted.permutation();
  linalg::Matrix gs(rank, rank);
  linalg::Vector hs(rank);
  for (std::size_t i = 0; i < rank; ++i) {
    hs[i] = h[perm[i]];
    for (std::size_t j = 0; j < rank; ++j) gs(i, j) = g(perm[i], perm[j]);
  }
  const linalg::RegularizedCholesky chol(gs);
  const auto vs = chol.solve(hs);
  linalg::Vector v(n, 0.0);
  for (std::size_t i = 0; i < rank; ++i) v[perm[i]] = vs[i];
  pinned = n - rank;
  return v;
}

// Identity-pins the links no kept pair equation covers: their G row and
// column are exactly zero (integer counts), so a unit diagonal decouples
// them — v = h / 1 = 0 — without perturbing any live link.  Applied only
// under drop-negative: a reduced routing matrix has no all-zero column, so
// keep-all diagonals are always positive on a full path set, and churned
// (submatrix) systems resolve the policy to drop-negative.
std::size_t pin_uncovered_links(NormalEquations& sys) {
  std::size_t pinned = 0;
  for (std::size_t a = 0; a < sys.g.rows(); ++a) {
    if (sys.g(a, a) == 0.0) {
      sys.g(a, a) = 1.0;
      ++pinned;
    }
  }
  return pinned;
}

VarianceEstimate finish(linalg::Vector v, VarianceEstimate partial) {
  for (auto& value : v) {
    if (value < 0.0) {
      value = 0.0;
      ++partial.negative_clamped;
    }
  }
  partial.v = std::move(v);
  return partial;
}

NormalEquations build_normal_equations_centered(
    const linalg::SparseBinaryMatrix& r, const stats::CenteredSnapshots& centered,
    const VarianceOptions& options) {
  if (!resolve_negative_policy(options, r.rows())) {
    return accumulate_closed_form(r, centered, options.threads);
  }
  const stats::BatchCovarianceSource source(centered, options.threads);
  return accumulate_pairwise_blocked(r, source, true, options.threads);
}

// Paper-exact dense path: materialise A, drop rows whose packed covariance
// is negative (when the policy says so), Householder QR.  `sigma_full` is
// the packed pair-covariance vector aligned with build_augmented_matrix.
VarianceEstimate dense_qr_estimate(const linalg::SparseBinaryMatrix& r,
                                   const linalg::Vector& sigma_full,
                                   bool drop_negative,
                                   const VarianceOptions& options) {
  const std::size_t nc = r.cols();
  // All-zero rows (path pairs with no shared link) carry no equation and
  // are excluded up front, mirroring the pairwise accumulation.
  const auto a_full =
      build_augmented_matrix(r, options.dense_entry_cap, options.threads);
  std::vector<std::size_t> keep;
  std::size_t dropped = 0;
  keep.reserve(sigma_full.size());
  for (std::size_t row = 0; row < sigma_full.size(); ++row) {
    const auto arow = a_full.row(row);
    const bool informative =
        std::any_of(arow.begin(), arow.end(), [](double x) { return x != 0.0; });
    if (!informative) continue;
    if (drop_negative && sigma_full[row] < 0.0) {
      ++dropped;
      continue;
    }
    keep.push_back(row);
  }
  linalg::Matrix a(keep.size(), nc);
  linalg::Vector sigma(keep.size());
  util::parallel_for(
      keep.size(), 64,
      [&](std::size_t out_begin, std::size_t out_end) {
        for (std::size_t out = out_begin; out < out_end; ++out) {
          const auto src = a_full.row(keep[out]);
          std::copy(src.begin(), src.end(), a.row(out).begin());
          sigma[out] = sigma_full[keep[out]];
        }
      },
      options.threads);
  VarianceEstimate est;
  est.method = "dense-qr";
  est.equations_used = keep.size();
  est.equations_dropped = dropped;
  const linalg::HouseholderQr qr(a);
  if (qr.full_column_rank()) {
    return finish(qr.solve(sigma), std::move(est));
  }
  // Dropping rows can (rarely) lose rank; fall back to the basic
  // rank-revealing solution.
  est.method = "dense-qr(pivoted-fallback)";
  return finish(linalg::PivotedQr(a).solve_basic(sigma), std::move(est));
}

// Shared normal-equation tail of both estimate_link_variances overloads.
VarianceEstimate solve_normal_system(NormalEquations sys, VarianceMethod method,
                                     bool drop_negative,
                                     const VarianceOptions& options) {
  VarianceEstimate est;
  est.equations_used = sys.used;
  est.equations_dropped = sys.dropped;
  if (drop_negative) est.links_pinned = pin_uncovered_links(sys);

  if (method == VarianceMethod::kNnls) {
    est.method = drop_negative ? "nnls(drop-negative)" : "nnls(keep-all)";
    auto result = linalg::nnls_gram(sys.g, sys.h);
    return finish(std::move(result.x), std::move(est));
  }

  est.method = drop_negative ? "normal(drop-negative)" : "normal(closed-form)";
  // Drop-negative G is integer-exact, so an exactly-singular system can
  // compute a rounding-level "positive" pivot and sail through a plain
  // factorization; the relative pivot floor forces such systems into the
  // jitter ladder (and from there the rank-revealing fallback).
  const linalg::RegularizedCholesky chol(sys.g, 1e-12, 6,
                                         drop_negative ? 1e-12 : 0.0);
  if (drop_negative && options.rank_revealing_min_attempts > 0 &&
      chol.jitter_attempts() >= options.rank_revealing_min_attempts) {
    // Equation drops left G rank-deficient beyond both the zero-diagonal
    // pins and the configured jitter tolerance: degrade by pinning the
    // deficient pivots instead of amplifying the jitter.
    est.method = "normal(drop-negative,rank-revealing)";
    std::size_t pinned = 0;
    auto v = solve_rank_revealing(sys.g, sys.h, pinned);
    est.links_pinned += pinned;
    return finish(std::move(v), std::move(est));
  }
  est.jitter_used = chol.jitter_used();
  return finish(chol.solve(sys.h), std::move(est));
}

}  // namespace

bool resolve_negative_policy(const VarianceOptions& options, std::size_t np) {
  switch (options.negatives) {
    case NegativeCovariancePolicy::kDrop:
      return true;
    case NegativeCovariancePolicy::kKeep:
      return false;
    case NegativeCovariancePolicy::kAuto:
    default:
      return np <= kPairwisePathCap;
  }
}

NormalEquations build_normal_equations(const linalg::SparseBinaryMatrix& r,
                                       const stats::SnapshotMatrix& y,
                                       const VarianceOptions& options) {
  if (y.dim() != r.rows()) {
    throw std::invalid_argument("snapshot dimension != path count");
  }
  if (y.count() < 2) throw std::invalid_argument("need >= 2 snapshots");
  const stats::CenteredSnapshots centered(y);
  return build_normal_equations_centered(r, centered, options);
}

NormalEquations build_normal_equations(const linalg::SparseBinaryMatrix& r,
                                       const stats::CovarianceSource& source,
                                       const VarianceOptions& options) {
  if (source.dim() != r.rows()) {
    throw std::invalid_argument("source dimension != path count");
  }
  if (source.count() < 2) throw std::invalid_argument("need >= 2 snapshots");
  if (resolve_negative_policy(options, r.rows())) {
    return accumulate_pairwise_blocked(r, source, true, options.threads);
  }
  NormalEquations sys;
  const linalg::CoTraversalGram gram(r);
  sys.g = augmented_normal_matrix(gram, options.threads);
  sys.h = augmented_normal_rhs(source.matrix(), r.column_lists(),
                               options.threads);
  sys.used = pair_count(r.rows());
  return sys;
}

VarianceEstimate estimate_link_variances(const linalg::SparseBinaryMatrix& r,
                                         const stats::SnapshotMatrix& y,
                                         const VarianceOptions& options) {
  if (y.dim() != r.rows()) {
    throw std::invalid_argument("snapshot dimension != path count");
  }
  if (y.count() < 2) throw std::invalid_argument("need >= 2 snapshots");
  const stats::CenteredSnapshots centered(y);

  // Resolve the auto knobs.
  VarianceMethod method = options.method;
  if (method == VarianceMethod::kAuto) {
    method = VarianceMethod::kNormal;
  }
  const bool drop_negative = resolve_negative_policy(options, r.rows());

  if (method == VarianceMethod::kDenseQr) {
    const auto s = stats::covariance_matrix(centered, options.threads);
    return dense_qr_estimate(r, packed_covariances(s), drop_negative,
                             options);
  }

  return solve_normal_system(build_normal_equations_centered(r, centered, options),
                             method, drop_negative, options);
}

VarianceEstimate estimate_link_variances(const linalg::SparseBinaryMatrix& r,
                                         const stats::CovarianceSource& source,
                                         const VarianceOptions& options) {
  if (source.dim() != r.rows()) {
    throw std::invalid_argument("source dimension != path count");
  }
  if (source.count() < 2) throw std::invalid_argument("need >= 2 snapshots");

  VarianceMethod method = options.method;
  if (method == VarianceMethod::kAuto) {
    method = VarianceMethod::kNormal;
  }
  const bool drop_negative = resolve_negative_policy(options, r.rows());

  if (method == VarianceMethod::kDenseQr) {
    return dense_qr_estimate(r, packed_covariances(source.matrix()),
                             drop_negative, options);
  }
  return solve_normal_system(build_normal_equations(r, source, options), method,
                             drop_negative, options);
}

StreamingNormalEquations::StreamingNormalEquations(
    const linalg::SparseBinaryMatrix& r, const VarianceOptions& options)
    : options_(options),
      np_(r.rows()),
      nc_(r.cols()),
      drop_negative_(resolve_negative_policy(options, r.rows())) {
  if (options_.method == VarianceMethod::kDenseQr) {
    throw std::invalid_argument(
        "StreamingNormalEquations does not support kDenseQr; use the batch "
        "path");
  }
  sys_.g = linalg::Matrix(nc_, nc_);
  sys_.h.assign(nc_, 0.0);
  if (!drop_negative_) {
    // Keep-all: G depends only on the routing matrix.
    const linalg::CoTraversalGram gram(r);
    sys_.g = augmented_normal_matrix(gram, options_.threads);
    sys_.used = pair_count(np_);
    column_paths_ = r.column_lists();
    return;
  }
  // Drop-negative: defer the sharing-pair enumeration to the first
  // refresh() (lazy build keeps construction O(nnz) — just this copy).
  // Every pair starts "dropped", so every link starts identity-pinned:
  // G = I, and the first refresh folds the kept pairs in (and the pins
  // out) through the flip path.
  pending_r_ = r;
  flip_scratch_.assign(nc_, 0.0);
  coverage_.assign(nc_, 0);
  pinned_in_g_.assign(nc_, 1);
  pin_pending_mark_.assign(nc_, 0);
  pins_active_ = nc_;
  for (std::size_t a = 0; a < nc_; ++a) sys_.g(a, a) = 1.0;
}

StreamingNormalEquations::StreamingNormalEquations(
    const linalg::SparseBinaryMatrix& r, const VarianceOptions& options,
    std::shared_ptr<SharingPairStore> store)
    : StreamingNormalEquations(r, options) {
  if (!drop_negative_) {
    throw std::invalid_argument(
        "a shared pair store requires the drop-negative policy");
  }
  if (!store || store->path_count() != np_) {
    throw std::invalid_argument("pair store does not match the routing matrix");
  }
  pairs_ = std::move(store);
  pair_kept_.assign(pairs_->pair_count(), 0);
  pending_mark_.assign(pairs_->pair_count(), 0);
  pending_r_.reset();
}

void StreamingNormalEquations::ensure_store() {
  if (pairs_) return;
  pairs_ = std::make_shared<SharingPairStore>(
      SharingPairStore::build(*pending_r_, options_.threads));
  pair_kept_.assign(pairs_->pair_count(), 0);
  pending_mark_.assign(pairs_->pair_count(), 0);
  pending_r_.reset();
}

// Folds the flipped pairs into G (integer counts, so the order does not
// matter and the result exactly matches a from-scratch accumulation over
// the current kept set) and records each flip in the pending set the next
// solve() reconciles the cached factor against.  A pair that flips back
// before the factor caught up cancels out of the pending set entirely —
// the saturation that lets the factor survive sign-flip storms.
void StreamingNormalEquations::apply_flips(
    const std::vector<std::size_t>& flips) {
  for (const std::size_t p : flips) {
    pair_kept_[p] ^= 1;
    const bool now_kept = pair_kept_[p] != 0;
    const double sign = now_kept ? 1.0 : -1.0;
    const auto links = pairs_->links(p);
    for (const auto a : links) {
      for (const auto b : links) sys_.g(a, b) += sign;
    }
    // Kept-pair coverage per link: a link crossing zero coverage enters or
    // leaves the identity-pinned state — an extra +/- e_a e_a^T on G that
    // the factor absorbs as a rank-1 border step.
    for (const auto a : links) {
      if (now_kept) {
        if (coverage_[a]++ == 0) {
          sys_.g(a, a) -= 1.0;
          pinned_in_g_[a] = 0;
          --pins_active_;
          note_pin_change(a);
        }
      } else {
        if (--coverage_[a] == 0) {
          sys_.g(a, a) += 1.0;
          pinned_in_g_[a] = 1;
          ++pins_active_;
          note_pin_change(a);
        }
      }
    }
    if (pending_mark_[p]) {
      // Net zero against the factor: drop from the pending set (the
      // stale queue entry is skipped lazily when its mark is clear).
      pending_mark_[p] = 0;
      --pending_live_;
    } else {
      pending_mark_[p] = 1;
      ++pending_live_;
      pending_.push_back(p);
    }
  }
  // Compact cancelled entries: a sustained sign-flip storm re-queues each
  // oscillating pair every other tick, and the stale-factor regime never
  // drains the queue — without this the queue would grow with ticks, not
  // with the live set.
  if (pending_.size() > 2 * pending_live_ + 64) {
    std::erase_if(pending_,
                  [&](std::size_t p) { return pending_mark_[p] == 0; });
  }
  if (pin_pending_.size() > 2 * pin_pending_live_ + 64) {
    std::erase_if(pin_pending_,
                  [&](std::size_t a) { return pin_pending_mark_[a] == 0; });
  }
}

void StreamingNormalEquations::note_pin_change(std::size_t link) {
  if (pin_pending_mark_[link]) {
    // Pinned and unpinned again before the factor caught up: net zero.
    pin_pending_mark_[link] = 0;
    --pin_pending_live_;
  } else {
    pin_pending_mark_[link] = 1;
    ++pin_pending_live_;
    pin_pending_.push_back(link);
  }
}

void StreamingNormalEquations::set_path_live(std::size_t path, bool live) {
  if (!drop_negative_) {
    throw std::logic_error(
        "path churn requires the drop-negative streaming configuration");
  }
  ensure_store();
  if (path >= pairs_->path_count()) {
    throw std::invalid_argument("path out of range");
  }
  if (pairs_->row_live(path) == live) return;
  pairs_->set_row_live(path, live);
  if (!live) {
    // Flip the departing path's kept pairs out of G now; refresh() will
    // skip the dead pairs from here on.
    pairs_->pairs_of_path(path, path_pairs_scratch_);
    std::vector<std::size_t> flips;
    for (const auto p : path_pairs_scratch_) {
      if (pair_kept_[p]) flips.push_back(p);
    }
    apply_flips(flips);
  }
  // Going live needs no immediate work: the pairs re-enter through
  // refresh() once the covariance source reports them ready again.
}

void StreamingNormalEquations::add_path(const linalg::SparseBinaryMatrix& r) {
  add_paths(r, 1);
}

void StreamingNormalEquations::add_paths(const linalg::SparseBinaryMatrix& r,
                                         std::size_t count) {
  if (!drop_negative_) {
    throw std::logic_error(
        "path churn requires the drop-negative streaming configuration");
  }
  if (count == 0) {
    throw std::invalid_argument("add_paths needs count >= 1");
  }
  if (r.rows() != np_ + count) {
    throw std::invalid_argument(
        "add_paths: appended row count does not match the routing matrix");
  }
  if (r.cols() != nc_) {
    throw std::invalid_argument(
        "add_paths: link universe mismatch (call grow_links first)");
  }
  np_ = r.rows();
  if (!pairs_) {
    pending_r_ = r;  // still lazy: the eventual build covers the new rows
    return;
  }
  pairs_->add_rows(r);
  // New pairs join dropped; they enter G through refresh() when ready.
  pair_kept_.resize(pairs_->pair_count(), 0);
  pending_mark_.resize(pairs_->pair_count(), 0);
}

void StreamingNormalEquations::grow_links(std::size_t count) {
  if (!drop_negative_) {
    throw std::logic_error(
        "link growth requires the drop-negative streaming configuration");
  }
  if (count == 0) return;
  const std::size_t nc = nc_ + count;
  // Fresh links have no kept pair equation, so they join identity-pinned:
  // G grows to diag(G, I) exactly.
  linalg::Matrix g(nc, nc);
  for (std::size_t i = 0; i < nc_; ++i) {
    const auto src = sys_.g.row(i);
    std::copy(src.begin(), src.end(), g.row(i).begin());
  }
  for (std::size_t a = nc_; a < nc; ++a) g(a, a) = 1.0;
  sys_.g = std::move(g);
  sys_.h.resize(nc, 0.0);
  flip_scratch_.resize(nc, 0.0);
  coverage_.resize(nc, 0);
  pinned_in_g_.resize(nc, 1);
  pin_pending_mark_.resize(nc, 0);
  pins_active_ += count;
  nc_ = nc;
  links_grown_ += count;
  if (factor_ && !factor_dirty_) {
    if (factor_->jitter_used() > 0.0) {
      // A jittered factor represents G + j*I; its identity border would
      // mismatch the exact unit diagonal of the grown G.  Rebuild instead.
      factor_dirty_ = true;
    } else {
      // Bordered growth: the identity border extends the factor exactly —
      // no refactorization, and pending flips stay reconcilable.
      factor_->append_identity(count);
    }
  }
}

// Brings the cached factor up to date with G when the pending flip set
// (pair flips + pin/unpin border steps) is small enough for rank-1 steps
// to beat a refactorization.  Returns false when a downdate lost positive
// definiteness (factor invalid).
bool StreamingNormalEquations::reconcile_factor() {
  const std::size_t cap = options_.factor_update_cap != 0
                              ? options_.factor_update_cap
                              : 4 * std::max<std::size_t>(nc_, 1);
  // Each up/downdate costs up to O(nc^2); a refactorization O(nc^3 / 3).
  // Past ~nc/4 pending flips (by default) the incremental path stops
  // paying for itself — the factor then stays stale and solve() leans on
  // iterative refinement instead.  Past the cumulative cap the drift
  // bound wins.
  const std::size_t stale_threshold = options_.factor_flip_threshold != 0
                                          ? options_.factor_flip_threshold
                                          : nc_ / 4 + 1;
  const std::size_t pending_total = pending_live_ + pin_pending_live_;
  if (pending_total > stale_threshold) return true;
  if (factor_updates_ + pending_total > cap) {
    factor_dirty_ = true;
    return true;
  }
  bool ok = true;
  // Additions before removals: a churn event retires whole batches of pair
  // equations while pinning the links they uncovered (and vice versa on a
  // join), and folding the updates in first keeps every intermediate
  // matrix maximally positive definite, so matched update/downdate batches
  // cannot transiently lose definiteness.
  for (const bool add_pass : {true, false}) {
    for (const std::size_t p : pending_) {
      if (!pending_mark_[p]) continue;  // cancelled while queued
      if ((pair_kept_[p] != 0) != add_pass) continue;
      pending_mark_[p] = 0;
      --pending_live_;
      if (!ok) continue;  // factor already invalid; just drain the queue
      const auto links = pairs_->links(p);
      // The flip perturbs G by +/- e_S e_S^T with e_S the shared-link
      // indicator — exactly one rank-1 step on the factor.
      for (const auto l : links) flip_scratch_[l] = 1.0;
      if (add_pass) {
        factor_->update(flip_scratch_);
      } else {
        ok = factor_->downdate(flip_scratch_);
      }
      for (const auto l : links) flip_scratch_[l] = 0.0;
      if (!ok) {
        ++downdate_fallbacks_;
        factor_dirty_ = true;
        continue;
      }
      ++factor_updates_;
      ++rank1_updates_;
    }
    for (const std::size_t a : pin_pending_) {
      if (!pin_pending_mark_[a]) continue;
      if ((pinned_in_g_[a] != 0) != add_pass) continue;
      pin_pending_mark_[a] = 0;
      --pin_pending_live_;
      if (!ok) continue;
      flip_scratch_[a] = 1.0;
      if (add_pass) {
        factor_->update(flip_scratch_);
      } else {
        ok = factor_->downdate(flip_scratch_);
      }
      flip_scratch_[a] = 0.0;
      if (!ok) {
        ++downdate_fallbacks_;
        factor_dirty_ = true;
        continue;
      }
      ++factor_updates_;
      ++rank1_updates_;
      ++pin_updates_;
    }
  }
  pending_.clear();
  pin_pending_.clear();
  return ok;
}

const NormalEquations& StreamingNormalEquations::refresh(
    const stats::CovarianceSource& source) {
  if (source.dim() != np_) {
    throw std::invalid_argument("source dimension != path count");
  }
  if (source.count() < 2) throw std::invalid_argument("need >= 2 snapshots");
  refreshed_ = true;

  if (!drop_negative_) {
    sys_.h =
        augmented_normal_rhs(source.matrix(), column_paths_, options_.threads);
    return sys_;
  }

  ensure_store();

  // Aligned pair-indexed source (core::PairMoments on this very store):
  // each pair's covariance is an O(1) array read — no np x np matrix
  // anywhere in the tick.  Every other source serves the dense S.
  const auto* pair_source = dynamic_cast<const PairMoments*>(&source);
  if (pair_source && pair_source->store() != pairs_.get()) {
    pair_source = nullptr;
  }
  const linalg::Matrix* s = pair_source ? nullptr : &source.matrix();
  const std::span<const double> pair_values =
      pair_source ? pair_source->pair_values() : std::span<const double>{};
  // cov = values[p] / (count - 1): dividing here keeps the arithmetic
  // bit-identical to PairMoments::pair_covariance.
  const double pair_denom = static_cast<double>(source.count() - 1);

  // Per-dimension readiness (path churn): a pair enters the system only
  // when both paths' statistics cover the full current window.
  std::vector<std::uint8_t> ready(np_);
  const std::size_t window_count = source.count();
  for (std::size_t i = 0; i < np_; ++i) {
    ready[i] = source.samples(i) == window_count ? 1 : 0;
  }

  struct Partial {
    linalg::Vector h;
    std::size_t used = 0;
    std::size_t dropped = 0;
    std::vector<std::size_t> flips;
  };
  Partial identity;
  identity.h.assign(nc_, 0.0);
  // Pairs are scanned in chunks whose boundaries depend only on the pair
  // count; partials reduce in ascending chunk order, so h is bit-identical
  // at any thread count and `flips` comes back in ascending pair order.
  Partial acc = util::parallel_reduce(
      pairs_->pair_count(), 8192, identity,
      [&](Partial& part, std::size_t begin, std::size_t end) {
        pairs_->for_pairs(
            begin, end,
            [&](std::size_t p, std::uint32_t i, std::uint32_t j,
                std::span<const std::uint32_t> links) {
              if (!pairs_->pair_live(p, i) || !ready[i] || !ready[j]) {
                // Dead or warming pair: out of the system (neither used
                // nor dropped — matching a batch accumulation over the
                // live-and-ready path subset).
                if (pair_kept_[p]) part.flips.push_back(p);
                return;
              }
              const double cov =
                  pair_source ? pair_values[p] / pair_denom : (*s)(i, j);
              const bool kept = !(cov < 0.0);
              if (kept != (pair_kept_[p] != 0)) part.flips.push_back(p);
              if (!kept) {
                ++part.dropped;
                return;
              }
              ++part.used;
              for (const auto link : links) part.h[link] += cov;
            });
      },
      [](Partial& into, const Partial& part) {
        for (std::size_t k = 0; k < into.h.size(); ++k) into.h[k] += part.h[k];
        into.used += part.used;
        into.dropped += part.dropped;
        into.flips.insert(into.flips.end(), part.flips.begin(),
                          part.flips.end());
      },
      options_.threads);

  apply_flips(acc.flips);
  sys_.h = std::move(acc.h);
  sys_.used = acc.used;
  sys_.dropped = acc.dropped;
  return sys_;
}

VarianceEstimate StreamingNormalEquations::solve() {
  if (!refreshed_) {
    throw std::logic_error("StreamingNormalEquations::solve before refresh");
  }
  VarianceMethod method = options_.method;
  if (method == VarianceMethod::kAuto) method = VarianceMethod::kNormal;
  VarianceEstimate est;
  est.equations_used = sys_.used;
  est.equations_dropped = sys_.dropped;
  est.links_pinned = pins_active_;

  if (method == VarianceMethod::kNnls) {
    est.method = drop_negative_ ? "streaming-nnls(drop-negative)"
                                : "streaming-nnls(keep-all)";
    auto result = linalg::nnls_gram(sys_.g, sys_.h);
    return finish(std::move(result.x), std::move(est));
  }

  est.method = drop_negative_ ? "streaming-normal(drop-negative)"
                              : "streaming-normal(keep-all)";
  // Zero-coverage links are identity-pinned inside G, so a factor that
  // needed an *amplified* jitter (ladder rung >= 2, matching the batch
  // trigger) means equation drops left the live block rank-deficient:
  // degrade exactly like the batch path — pivoted rank-revealing solve,
  // deficient links pinned — instead of amplifying the jittered solution.
  const auto rank_revealing_tail = [&](VarianceEstimate partial) {
    partial.method = "streaming-normal(drop-negative,rank-revealing)";
    partial.jitter_used = 0.0;
    std::size_t extra = 0;
    auto pinned_v = solve_rank_revealing(sys_.g, sys_.h, extra);
    partial.links_pinned = pins_active_ + extra;
    return finish(std::move(pinned_v), std::move(partial));
  };
  if (factor_ && !factor_dirty_ && pending_live_ + pin_pending_live_ > 0) {
    // A jitter-regularized factor solves G + j*I, not G; carrying it
    // across G changes would make refinement target a different system
    // than the batch baseline (and on a still-singular G, an unsolvable
    // one).  Jittered factors are refactorized at the first flip instead.
    if (factor_->jitter_used() > 0.0) {
      factor_dirty_ = true;
    } else if (!reconcile_factor()) {
      factor_dirty_ = true;
    }
  }
  if (!factor_ || factor_dirty_) refactorize();
  if (drop_negative_ && options_.rank_revealing_min_attempts > 0 &&
      factor_->jitter_attempts() >= options_.rank_revealing_min_attempts) {
    return rank_revealing_tail(std::move(est));
  }
  est.jitter_used = factor_->jitter_used();
  linalg::Vector v = factor_->solve(sys_.h);
  if (factor_updates_ > 0 || pending_live_ + pin_pending_live_ > 0) {
    // The factor is inexact — up/downdate drift, or deliberately stale
    // after a flip burst too large for rank-1 steps.  G itself is exact
    // (integer counts), so iterative refinement — residual against the
    // true G, correction through the cached factor — recovers
    // direct-solve accuracy at O(nc^2) per step as long as the factor
    // still preconditions G.  When it stops converging, the factor has
    // diverged too far: refactorize and solve directly (bit-identical
    // to the batch solve, as on every freshly refactorized tick).
    if (!refine(v)) {
      refactorize();
      if (drop_negative_ && options_.rank_revealing_min_attempts > 0 &&
          factor_->jitter_attempts() >= options_.rank_revealing_min_attempts) {
        return rank_revealing_tail(std::move(est));
      }
      est.jitter_used = factor_->jitter_used();
      v = factor_->solve(sys_.h);
    }
  }
  return finish(std::move(v), std::move(est));
}

void StreamingNormalEquations::refactorize() {
  // Same pivot floor as the batch solve (see solve_normal_system): an
  // exactly-singular drop-negative G must enter the jitter ladder rather
  // than factorize on a rounding-level pivot.
  factor_.emplace(sys_.g, 1e-12, 6, drop_negative_ ? 1e-12 : 0.0);
  factor_dirty_ = false;
  factor_updates_ = 0;
  // The fresh factor matches G exactly: the pending sets are moot.
  for (const std::size_t p : pending_) pending_mark_[p] = 0;
  pending_.clear();
  pending_live_ = 0;
  for (const std::size_t a : pin_pending_) pin_pending_mark_[a] = 0;
  pin_pending_.clear();
  pin_pending_live_ = 0;
  ++refactorizations_;
}

// Polishes the direct solve F v ~ G^-1 h against the exact G with
// conjugate gradients preconditioned by the cached factor.  A drifted or
// stale factor gives M = F F^T close to G, so PCG converges in a handful
// of steps where plain refinement (Richardson) would need dozens at the
// same O(nc^2) per-step cost.  Returns false when the iteration budget
// runs out or the search direction collapses (numerically indefinite /
// singular system) — the caller then refactorizes.  All arithmetic is
// sequential and depends only on the operand values, so results are
// identical at any thread count.
bool StreamingNormalEquations::refine(linalg::Vector& v) {
  // Tolerance, budget, and contraction come from VarianceOptions so a
  // deployment can trade parity for tick latency (ROADMAP open item); the
  // defaults reproduce the recorded 1e-13 * ||h|| behaviour.
  const int max_iterations = options_.refine_max_iterations;
  if (max_iterations <= 0) return false;  // refinement disabled
  const std::size_t n = sys_.h.size();
  double hnorm = 0.0;
  for (const double x : sys_.h) hnorm = std::max(hnorm, std::fabs(x));
  const double tol = kRefineTolerance * std::max(hnorm, 1e-300);

  const linalg::Vector gv = sys_.g.multiply(v);
  linalg::Vector r(n);
  double rnorm = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    r[k] = sys_.h[k] - gv[k];
    rnorm = std::max(rnorm, std::fabs(r[k]));
  }
  if (rnorm <= tol) return true;
  const double r0 = rnorm;

  linalg::Vector z = factor_->solve(r);
  linalg::Vector p = z;
  double rz = 0.0;
  for (std::size_t k = 0; k < n; ++k) rz += r[k] * z[k];
  // Stall guard: on ill-conditioned G the attainable residual floor sits
  // above the tolerance; once progress stops, bail to the refactorization
  // fallback instead of burning the whole iteration budget every tick.
  double best = rnorm;
  int since_best = 0;
  for (int iter = 0; iter < max_iterations; ++iter) {
    ++refine_iterations_;
    const linalg::Vector gp = sys_.g.multiply(p);
    double pgp = 0.0;
    for (std::size_t k = 0; k < n; ++k) pgp += p[k] * gp[k];
    if (!(pgp > 0.0)) return false;  // direction collapsed: G ~ singular
    const double alpha = rz / pgp;
    rnorm = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      v[k] += alpha * p[k];
      r[k] -= alpha * gp[k];
      rnorm = std::max(rnorm, std::fabs(r[k]));
    }
    if (rnorm <= tol) {
      // The recursive residual drifts from the true one when the start
      // point was poor (badly stale factor): accept only on a recomputed
      // residual, else refactorize.
      const linalg::Vector gv2 = sys_.g.multiply(v);
      double true_rnorm = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        true_rnorm = std::max(true_rnorm, std::fabs(sys_.h[k] - gv2[k]));
      }
      return true_rnorm <= 10.0 * tol;
    }
    if (rnorm > 100.0 * r0) return false;  // diverging
    if (rnorm < kRefineContraction * best) {
      best = rnorm;
      since_best = 0;
    } else if (++since_best >= kRefineStallWindow) {
      return false;  // stalled above tolerance
    }
    z = factor_->solve(r);
    double rz_next = 0.0;
    for (std::size_t k = 0; k < n; ++k) rz_next += r[k] * z[k];
    const double beta = rz_next / rz;
    rz = rz_next;
    for (std::size_t k = 0; k < n; ++k) p[k] = z[k] + beta * p[k];
  }
  return false;
}

void StreamingNormalEquations::save_state(io::CheckpointWriter& writer,
                                          bool store_external) const {
  writer.begin_section(io::tags::kNormalEquations);
  writer.usize(np_);
  writer.usize(nc_);
  writer.boolean(drop_negative_);
  writer.boolean(refreshed_);
  writer.doubles(sys_.g.data());
  writer.doubles(sys_.h);
  writer.usize(sys_.used);
  writer.usize(sys_.dropped);
  writer.boolean(factor_dirty_);
  writer.boolean(factor_.has_value());
  if (factor_) {
    writer.doubles(factor_->l().data());
    writer.f64(factor_->jitter_used());
    writer.u32(static_cast<std::uint32_t>(factor_->jitter_attempts()));
  }
  writer.usize(factor_updates_);
  writer.usize(refactorizations_);
  writer.usize(rank1_updates_);
  writer.usize(pin_updates_);
  writer.usize(links_grown_);
  writer.usize(downdate_fallbacks_);
  writer.usize(refine_iterations_);
  if (drop_negative_) {
    const bool has_store = pairs_ != nullptr;
    writer.boolean(has_store);
    writer.boolean(store_external);
    if (has_store && !store_external) pairs_->save_state(writer);
    writer.u8s(pair_kept_);
    writer.sizes(pending_);
    writer.u8s(pending_mark_);
    writer.usize(pending_live_);
    writer.u32s(coverage_);
    writer.u8s(pinned_in_g_);
    writer.sizes(pin_pending_);
    writer.u8s(pin_pending_mark_);
    writer.usize(pin_pending_live_);
    writer.usize(pins_active_);
  }
  writer.end_section();
}

void StreamingNormalEquations::restore_state(
    io::CheckpointReader& reader, std::shared_ptr<SharingPairStore> store) {
  reader.expect_section(io::tags::kNormalEquations);
  const std::size_t np = reader.usize();
  const std::size_t nc = reader.usize();
  const bool drop_negative = reader.boolean();
  if (np != np_ || nc != nc_ || drop_negative != drop_negative_) {
    throw io::CheckpointError(
        io::CheckpointErrorKind::kMismatch,
        "normal equations shape " + std::to_string(np) + "x" +
            std::to_string(nc) + (drop_negative ? " drop" : " keep") +
            ", expected " + std::to_string(np_) + "x" + std::to_string(nc_) +
            (drop_negative_ ? " drop" : " keep"));
  }
  // Everything parses into locals first; members only move in at the end
  // (no-partial-state guarantee).
  const bool refreshed = reader.boolean();
  std::vector<double> g = reader.doubles();
  std::vector<double> h = reader.doubles();
  const std::size_t used = reader.usize();
  const std::size_t dropped = reader.usize();
  const bool factor_dirty = reader.boolean();
  const bool has_factor = reader.boolean();
  std::optional<linalg::UpdatableCholesky> factor;
  if (has_factor) {
    std::vector<double> l = reader.doubles();
    const double jitter_used = reader.f64();
    const int jitter_attempts = static_cast<int>(reader.u32());
    if (l.size() != nc_ * nc_) {
      throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                                "cached factor has the wrong shape");
    }
    linalg::Matrix lm(nc_, nc_);
    std::copy(l.begin(), l.end(), lm.data().begin());
    factor = linalg::UpdatableCholesky::from_state(std::move(lm), jitter_used,
                                                   jitter_attempts);
  }
  const std::size_t factor_updates = reader.usize();
  const std::size_t refactorizations = reader.usize();
  const std::size_t rank1_updates = reader.usize();
  const std::size_t pin_updates = reader.usize();
  const std::size_t links_grown = reader.usize();
  const std::size_t downdate_fallbacks = reader.usize();
  const std::size_t refine_iterations = reader.usize();
  if (g.size() != nc_ * nc_ || h.size() != nc_) {
    throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                              "normal equations G/h have the wrong shape");
  }
  std::shared_ptr<SharingPairStore> pairs;
  std::vector<std::uint8_t> pair_kept;
  std::vector<std::size_t> pending;
  std::vector<std::uint8_t> pending_mark;
  std::size_t pending_live = 0;
  std::vector<std::uint32_t> coverage;
  std::vector<std::uint8_t> pinned_in_g;
  std::vector<std::size_t> pin_pending;
  std::vector<std::uint8_t> pin_pending_mark;
  std::size_t pin_pending_live = 0;
  std::size_t pins_active = 0;
  bool has_store = false;
  if (drop_negative_) {
    has_store = reader.boolean();
    const bool store_external = reader.boolean();
    if (has_store) {
      if (store_external) {
        if (store == nullptr) {
          throw io::CheckpointError(
              io::CheckpointErrorKind::kMismatch,
              "checkpoint expects a shared pair store, none was provided");
        }
        pairs = std::move(store);
      } else {
        if (store != nullptr) {
          throw io::CheckpointError(
              io::CheckpointErrorKind::kMismatch,
              "checkpoint embeds its own pair store, but a shared store "
              "was provided");
        }
        pairs = std::make_shared<SharingPairStore>();
        pairs->restore_state(reader);
      }
    }
    pair_kept = reader.u8s();
    pending = reader.sizes();
    pending_mark = reader.u8s();
    pending_live = reader.usize();
    coverage = reader.u32s();
    pinned_in_g = reader.u8s();
    pin_pending = reader.sizes();
    pin_pending_mark = reader.u8s();
    pin_pending_live = reader.usize();
    pins_active = reader.usize();
    const std::size_t pair_count = pairs ? pairs->pair_count() : 0;
    bool ok = pair_kept.size() == pair_count &&
              pending_mark.size() == pair_count &&
              coverage.size() == nc_ && pinned_in_g.size() == nc_ &&
              pin_pending_mark.size() == nc_ && pins_active <= nc_ &&
              (!pairs || pairs->path_count() == np_);
    for (std::size_t k = 0; ok && k < pending.size(); ++k) {
      ok = pending[k] < pair_count;
    }
    for (std::size_t k = 0; ok && k < pin_pending.size(); ++k) {
      ok = pin_pending[k] < nc_;
    }
    if (!ok) {
      throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                                "pending-flip/pin state is inconsistent");
    }
  }
  reader.end_section();

  refreshed_ = refreshed;
  std::copy(g.begin(), g.end(), sys_.g.data().begin());
  sys_.h = std::move(h);
  sys_.used = used;
  sys_.dropped = dropped;
  factor_dirty_ = factor_dirty;
  factor_ = std::move(factor);
  factor_updates_ = factor_updates;
  refactorizations_ = refactorizations;
  rank1_updates_ = rank1_updates;
  pin_updates_ = pin_updates;
  links_grown_ = links_grown;
  downdate_fallbacks_ = downdate_fallbacks;
  refine_iterations_ = refine_iterations;
  if (drop_negative_) {
    if (has_store) {
      pairs_ = std::move(pairs);
      pending_r_.reset();
    }
    // else: the lazy pending_r_ installed by the constructor stays.
    pair_kept_ = std::move(pair_kept);
    pending_ = std::move(pending);
    pending_mark_ = std::move(pending_mark);
    pending_live_ = pending_live;
    coverage_ = std::move(coverage);
    pinned_in_g_ = std::move(pinned_in_g);
    pin_pending_ = std::move(pin_pending);
    pin_pending_mark_ = std::move(pin_pending_mark);
    pin_pending_live_ = pin_pending_live;
    pins_active_ = pins_active;
    flip_scratch_.assign(nc_, 0.0);
  }
}

}  // namespace losstomo::core

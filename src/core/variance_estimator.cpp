#include "core/variance_estimator.hpp"

#include <algorithm>
#include <optional>
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

// Largest path count for which kAuto resolves to the drop-negative policy
// (pairwise equations over the sharing-pair store); beyond it keep-all,
// whose closed form costs nothing per path pair.
constexpr std::size_t kPairwisePathCap = 2000;

void check_snapshots(const linalg::SparseBinaryMatrix& r,
                     const stats::SnapshotMatrix& y) {
  if (y.dim() != r.rows()) {
    throw std::invalid_argument("snapshot dimension != path count");
  }
  if (y.count() < 2) throw std::invalid_argument("need >= 2 snapshots");
}

// Rank-revealing fallback for a drop-negative G left singular (or
// numerically so) by equation drops with every diagonal still positive:
// pivoted Cholesky identifies the well-conditioned link subset, the
// reduced SPD system is solved directly, and the pivot-deficient links are
// pinned to zero variance — the same degradation the dense-QR path gets
// from its pivoted fallback, instead of a jitter-amplified solution on the
// full singular system.  Deterministic: pivot selection depends only on G,
// an exact integer sum over the kept pairs.
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

// Normal-equation tail of estimate_link_variances (kNormal and kNnls) and
// of the drop-negative streaming solve.
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

// Adds `sign` times pair p's equation to g: +/-1 on the block of its
// shared links.  Integer counts, so the order of folds never matters and g
// always equals a from-scratch sum over the kept pairs.
void fold_pair(linalg::Matrix& g, std::span<const std::uint32_t> links,
               double sign) {
  for (const auto a : links) {
    for (const auto b : links) g(a, b) += sign;
  }
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
                                       const VarianceOptions& options,
                                       const linalg::CoTraversalGram* gram) {
  check_snapshots(r, y);
  // One assembly for batch and streaming: the batch system is a fresh
  // streaming instance's first refresh over the centred window.
  const stats::BatchCovarianceSource source(y, options.threads);
  VarianceOptions normal = options;
  normal.method = VarianceMethod::kNormal;
  return StreamingNormalEquations(r, normal, gram).refresh(source);
}

VarianceEstimate estimate_link_variances(const linalg::SparseBinaryMatrix& r,
                                         const stats::SnapshotMatrix& y,
                                         const VarianceOptions& options,
                                         const linalg::CoTraversalGram* gram) {
  check_snapshots(r, y);
  // Resolve the auto knobs.
  VarianceMethod method = options.method;
  if (method == VarianceMethod::kAuto) {
    method = VarianceMethod::kNormal;
  }
  const bool drop_negative = resolve_negative_policy(options, r.rows());

  if (method == VarianceMethod::kDenseQr) {
    const stats::CenteredSnapshots centered(y);
    const auto s = stats::covariance_matrix(centered, options.threads);
    return dense_qr_estimate(r, packed_covariances({s, 1.0}), drop_negative,
                             options);
  }
  return solve_normal_system(build_normal_equations(r, y, options, gram),
                             method, drop_negative, options);
}

StreamingNormalEquations::StreamingNormalEquations(
    const linalg::SparseBinaryMatrix& r, const VarianceOptions& options,
    const linalg::CoTraversalGram* gram)
    : options_(options),
      np_(r.rows()),
      nc_(r.cols()),
      drop_negative_(resolve_negative_policy(options, r.rows())) {
  if (options_.method == VarianceMethod::kDenseQr ||
      options_.method == VarianceMethod::kNnls) {
    throw std::invalid_argument(
        "StreamingNormalEquations supports kAuto and kNormal only; use the "
        "batch path for kDenseQr and kNnls");
  }
  sys_.h.assign(nc_, 0.0);
  routing_ = r;
  if (drop_negative_) {
    sys_.g = linalg::Matrix(nc_, nc_);
  } else {
    // Keep-all: G depends only on the routing matrix.
    sys_.g = gram != nullptr
                 ? augmented_normal_matrix(*gram, options_.threads)
                 : augmented_normal_matrix(linalg::CoTraversalGram(r),
                                           options_.threads);
    sys_.used = pair_count(np_);
  }
  // Drop-negative: defer the sharing-pair enumeration to the first
  // refresh() (lazy build keeps construction O(nnz) — just the copy
  // above).  Every pair starts "dropped", so G starts at zero and the
  // first refresh folds the kept pairs in through the flip path.
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
  routing_.reset();
}

void StreamingNormalEquations::ensure_store() {
  if (pairs_) return;
  pairs_ = std::make_shared<SharingPairStore>(
      SharingPairStore::build(*routing_, options_.threads));
  pair_kept_.assign(pairs_->pair_count(), 0);
  routing_.reset();
}

void StreamingNormalEquations::apply_flips(
    const std::vector<std::size_t>& flips) {
  for (const std::size_t p : flips) {
    pair_kept_[p] ^= 1;
    fold_pair(sys_.g, pairs_->links(p), pair_kept_[p] != 0 ? 1.0 : -1.0);
  }
  flips_ += flips.size();
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
    routing_ = r;  // still lazy: the eventual build covers the new rows
    return;
  }
  pairs_->add_rows(r);
  // New pairs join dropped; they enter G through refresh() when ready.
  pair_kept_.resize(pairs_->pair_count(), 0);
}

void StreamingNormalEquations::grow_links(std::size_t count) {
  if (!drop_negative_) {
    throw std::logic_error(
        "link growth requires the drop-negative streaming configuration");
  }
  if (count == 0) return;
  const std::size_t nc = nc_ + count;
  // Fresh links have no kept pair equation: zero rows and columns.
  linalg::Matrix g(nc, nc);
  for (std::size_t i = 0; i < nc_; ++i) {
    const auto src = sys_.g.row(i);
    std::copy(src.begin(), src.end(), g.row(i).begin());
  }
  sys_.g = std::move(g);
  sys_.h.resize(nc, 0.0);
  nc_ = nc;
  links_grown_ += count;
}

std::size_t StreamingNormalEquations::links_pinned() const {
  if (!drop_negative_) return 0;
  std::size_t pinned = 0;
  for (std::size_t a = 0; a < nc_; ++a) pinned += sys_.g(a, a) == 0.0;
  return pinned;
}

const NormalEquations& StreamingNormalEquations::refresh(
    const stats::CovarianceSource& source) {
  if (source.dim() != np_) {
    throw std::invalid_argument("source dimension != path count");
  }
  if (source.count() < 2) throw std::invalid_argument("need >= 2 snapshots");
  refreshed_ = true;

  if (!drop_negative_) {
    sys_.h = augmented_normal_rhs(source.snapshots(), *routing_,
                                  options_.threads);
    return sys_;
  }

  ensure_store();

  // Aligned pair-indexed source (core::PairMoments on this very store):
  // each pair's covariance is an O(1) array read — no np x np matrix
  // anywhere in the tick.  Every other source serves the dense view.
  const auto* pair_source = dynamic_cast<const PairMoments*>(&source);
  if (pair_source && pair_source->store() != pairs_.get()) {
    pair_source = nullptr;
  }
  const std::optional<stats::CovarianceView> s =
      pair_source ? std::nullopt : std::optional(source.view());
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
              // A view entry is compared before it is summed, so it is
              // rounded exactly as a materialised S entry would be.
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
  flips_ = 0;
  if (drop_negative_) {
    ++refactorizations_;
    // G and h are what a batch accumulation over the kept pairs gives, so
    // the batch tail solves them: pins, pivot floor, jitter ladder and
    // rank-revealing fallback included.
    VarianceEstimate est = solve_normal_system(sys_, VarianceMethod::kNormal,
                                               true, options_);
    est.method = "streaming-" + est.method;
    return est;
  }
  // Keep-all: G never changes, so its factor is computed once.
  if (!factor_) {
    factor_.emplace(sys_.g);
    ++refactorizations_;
  }
  VarianceEstimate est;
  est.method = "streaming-normal(keep-all)";
  est.equations_used = sys_.used;
  est.equations_dropped = sys_.dropped;
  est.jitter_used = factor_->jitter_used();
  return finish(factor_->solve(sys_.h), std::move(est));
}

void StreamingNormalEquations::save_state(io::CheckpointWriter& writer,
                                          bool store_external) const {
  writer.begin_section(io::tags::kNormalEquations);
  writer.usize(np_);
  writer.usize(nc_);
  writer.boolean(drop_negative_);
  writer.usize(refactorizations_);
  writer.usize(links_grown_);
  if (drop_negative_) {
    const bool has_store = pairs_ != nullptr;
    writer.boolean(has_store);
    writer.boolean(store_external);
    if (has_store && !store_external) pairs_->save_state(writer);
    writer.u8s(pair_kept_);
    writer.usize(flips_);
  } else {
    writer.boolean(factor_.has_value());
    if (factor_) {
      writer.doubles(factor_->factor().l().data());
      writer.f64(factor_->jitter_used());
      writer.u32(static_cast<std::uint32_t>(factor_->jitter_attempts()));
    }
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
  const std::size_t refactorizations = reader.usize();
  const std::size_t links_grown = reader.usize();
  std::shared_ptr<SharingPairStore> pairs;
  std::vector<std::uint8_t> pair_kept;
  std::size_t flips = 0;
  bool has_store = false;
  linalg::Matrix g;
  std::optional<linalg::RegularizedCholesky> factor;
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
    flips = reader.usize();
    const std::size_t pair_count = pairs ? pairs->pair_count() : 0;
    if (pair_kept.size() != pair_count ||
        (pairs && pairs->path_count() != np_)) {
      throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                                "kept-pair flags are inconsistent");
    }
    // G is not serialized: it is the integer sum over the kept pairs.
    g = linalg::Matrix(nc_, nc_);
    for (std::size_t p = 0; p < pair_count; ++p) {
      const auto links = pairs->links(p);
      if (pair_kept[p] > 1 ||
          std::any_of(links.begin(), links.end(),
                      [&](std::uint32_t link) { return link >= nc_; })) {
        throw io::CheckpointError(
            io::CheckpointErrorKind::kCorrupt,
            "kept-pair flag or shared link out of range");
      }
      if (pair_kept[p] != 0) fold_pair(g, links, 1.0);
    }
  } else if (reader.boolean()) {
    // Keep-all G is the one the constructor built from the routing matrix;
    // its factor is restored as saved, so resuming factorizes nothing.
    std::vector<double> l = reader.doubles();
    const double jitter_used = reader.f64();
    const int jitter_attempts = static_cast<int>(reader.u32());
    if (l.size() != nc_ * nc_) {
      throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                                "cached factor has the wrong shape");
    }
    linalg::Matrix lm(nc_, nc_);
    std::copy(l.begin(), l.end(), lm.data().begin());
    factor = linalg::RegularizedCholesky::from_state(std::move(lm),
                                                     jitter_used,
                                                     jitter_attempts);
  }
  reader.end_section();

  // h, used and dropped are what the next refresh() rebuilds; until then
  // solve() throws, as on a fresh instance.
  refreshed_ = false;
  sys_.h.assign(nc_, 0.0);
  refactorizations_ = refactorizations;
  links_grown_ = links_grown;
  factor_ = std::move(factor);
  if (drop_negative_) {
    sys_.g = std::move(g);
    sys_.used = 0;
    sys_.dropped = 0;
    if (has_store) {
      pairs_ = std::move(pairs);
      routing_.reset();
    }
    // else: the lazy routing_ installed by the constructor stays.
    pair_kept_ = std::move(pair_kept);
    flips_ = flips;
  }
}

}  // namespace losstomo::core

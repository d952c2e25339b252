#include "core/pair_moments.hpp"

#include <algorithm>
#include <stdexcept>

#include "io/checkpoint.hpp"
#include "io/checkpoint_tags.hpp"
#include "util/parallel.hpp"

namespace losstomo::core {

constexpr std::size_t kPairGrain = 8192;

PairMoments::PairMoments(std::shared_ptr<const SharingPairStore> store,
                         std::size_t dim,
                         stats::StreamingMomentsOptions options)
    : WindowAccumulator(dim, options),
      store_(std::move(store)),
      values_(store_->pair_count(), 0.0) {
  if (store_->path_count() != dim) {
    throw std::invalid_argument("store path count != dim");
  }
}

void PairMoments::fold(double wr, double wa) {
  const auto& dr = window_.retire_delta();
  const auto& da = window_.add_delta();
  util::parallel_for(
      values_.size(), kPairGrain,
      [&](std::size_t begin, std::size_t end) {
        // Retire term, then add term: the arithmetic of a retire pass
        // followed by an add pass, in one.
        store_->for_pairs(begin, end,
                          [&](std::size_t p, std::uint32_t i, std::uint32_t j,
                              std::span<const std::uint32_t>) {
                            double v = values_[p];
                            if (wr != 0.0) v += wr * dr[i] * dr[j];
                            v += wa * da[i] * da[j];
                            values_[p] = v;
                          });
      },
      window_.threads());
}

void PairMoments::push(std::span<const double> y) {
  if (values_.size() != store_->pair_count()) {
    throw std::logic_error("pair store grew without PairMoments::add_paths");
  }
  window_.push(y, [this](double wr, double wa) { fold(wr, wa); },
               [this] { refresh(); });
}

void PairMoments::refresh() {
  if (!window_.refresh_means()) return;
  // Exact per-pair recompute, chunk-parallel over the pair list; each pair
  // accumulates its own sum sequentially in logical order, so the result is
  // independent of the thread count.
  const std::size_t count = window_.count();
  const auto& mean = window_.means();
  util::parallel_for(
      values_.size(), std::max<std::size_t>(1, kPairGrain / window_.window()),
      [&](std::size_t begin, std::size_t end) {
        store_->for_pairs(
            begin, end,
            [&](std::size_t p, std::uint32_t i, std::uint32_t j,
                std::span<const std::uint32_t>) {
              double sum = 0.0;
              for (std::size_t l = 0; l < count; ++l) {
                const auto src = window_.sample(l);
                sum += (src[i] - mean[i]) * (src[j] - mean[j]);
              }
              values_[p] = sum;
            });
      },
      window_.threads());
}

void PairMoments::save_state(io::CheckpointWriter& writer) const {
  writer.begin_section(io::tags::kPairMoments);
  writer.usize(window_.dim());
  writer.usize(window_.window());
  writer.usize(values_.size());
  window_.save_state(writer);
  writer.doubles(values_);
  writer.end_section();
}

void PairMoments::restore_state(io::CheckpointReader& reader) {
  reader.expect_section(io::tags::kPairMoments);
  const std::size_t dim = reader.usize();
  const std::size_t window = reader.usize();
  const std::size_t pairs = reader.usize();
  if (dim != window_.dim() || window != window_.window() ||
      pairs != values_.size()) {
    throw io::CheckpointError(
        io::CheckpointErrorKind::kMismatch,
        "pair moments shape " + std::to_string(dim) + "x" +
            std::to_string(window) + "/" + std::to_string(pairs) +
            " pairs, expected " + std::to_string(window_.dim()) + "x" +
            std::to_string(window_.window()) + "/" +
            std::to_string(values_.size()));
  }
  stats::SlidingWindow parsed = window_.restore_state(reader);
  std::vector<double> values = reader.doubles();
  reader.end_section();
  if (values.size() != values_.size()) {
    throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                              "pair moments state is inconsistent");
  }
  window_ = std::move(parsed);
  values_ = std::move(values);
}

double PairMoments::covariance(std::size_t i, std::size_t j) const {
  if (count() < 2) throw std::logic_error("covariance needs >= 2 snapshots");
  const std::size_t p = store_->find_pair(i, j);
  if (p == SharingPairStore::kNoPair) {
    return 0.0;  // non-sharing pair: never consumed
  }
  return pair_covariance(p);
}

stats::CovarianceView PairMoments::view() const {
  throw std::logic_error(
      "PairMoments maintains only sharing-pair covariances; use the dense "
      "StreamingMoments accumulator where the full S is required");
}

std::size_t PairMoments::add_paths(std::size_t count) {
  const std::size_t index = window_.grow(count);
  // New pairs appended by SharingPairStore::add_rows start at zero — the
  // exact centred cross-product of the new dimensions' all-zero history.
  values_.resize(store_->pair_count(), 0.0);
  return index;
}

}  // namespace losstomo::core

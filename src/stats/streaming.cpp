#include "stats/streaming.hpp"

#include <algorithm>
#include <stdexcept>

#include "io/checkpoint.hpp"
#include "io/checkpoint_tags.hpp"
#include "linalg/kernels.hpp"
#include "util/parallel.hpp"

namespace losstomo::stats {

StreamingMoments::StreamingMoments(std::size_t dim,
                                   StreamingMomentsOptions options)
    : window_(dim, options), cross_(dim, dim), cov_(dim, dim) {}

std::size_t StreamingMoments::add_paths(std::size_t count) {
  const std::size_t dim = window_.dim();
  const std::size_t index = window_.grow(count);
  const std::size_t next = window_.dim();
  linalg::Matrix cross(next, next);
  for (std::size_t i = 0; i < dim; ++i) {
    const auto src = cross_.row(i);
    std::copy(src.begin(), src.end(), cross.row(i).begin());
  }
  cross_ = std::move(cross);
  cov_ = linalg::Matrix(next, next);
  cov_valid_ = false;
  return index;
}

void StreamingMoments::rank1(double w) {
  const std::size_t dim = window_.dim();
  const auto& delta = window_.delta();
  util::parallel_for(
      dim, 64,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const double wi = w * delta[i];
          if (wi == 0.0) continue;
          auto row = cross_.row(i);
          for (std::size_t j = 0; j < dim; ++j) row[j] += wi * delta[j];
        }
      },
      window_.threads());
}

void StreamingMoments::push(std::span<const double> y) {
  window_.push(y, [this](double w) { rank1(w); }, [this] { refresh(); });
  cov_valid_ = false;
}

void StreamingMoments::push_block(std::span<const double> values,
                                  std::size_t rows) {
  window_.push_block(values, rows, [this](double w) { rank1(w); },
                     [this] { refresh(); });
  cov_valid_ = false;
}

void StreamingMoments::refresh() {
  cov_valid_ = false;
  if (!window_.refresh_means()) return;
  const std::size_t dim = window_.dim();
  const std::size_t count = window_.count();
  const auto& mean = window_.means();
  SnapshotMatrix centered(dim, count);
  for (std::size_t l = 0; l < count; ++l) {
    const auto src = window_.sample(l);
    auto dst = centered.sample(l);
    for (std::size_t i = 0; i < dim; ++i) dst[i] = src[i] - mean[i];
  }
  cross_ = linalg::blocked_gram(centered.flat().data(), count, dim, 1.0,
                                window_.threads());
}

void StreamingMoments::save_state(io::CheckpointWriter& writer) const {
  writer.begin_section(io::tags::kStreamingMoments);
  writer.usize(window_.dim());
  writer.usize(window_.window());
  window_.save_state(writer);
  writer.doubles(cross_.data());
  writer.end_section();
}

void StreamingMoments::restore_state(io::CheckpointReader& reader) {
  reader.expect_section(io::tags::kStreamingMoments);
  const std::size_t dim = reader.usize();
  const std::size_t window = reader.usize();
  if (dim != window_.dim() || window != window_.window()) {
    throw io::CheckpointError(
        io::CheckpointErrorKind::kMismatch,
        "streaming moments shape " + std::to_string(dim) + "x" +
            std::to_string(window) + ", expected " +
            std::to_string(window_.dim()) + "x" +
            std::to_string(window_.window()));
  }
  // Parse everything into temporaries, validate, then commit with moves so
  // a corrupt section leaves *this untouched.
  SlidingWindow parsed = window_.restore_state(reader);
  std::vector<double> cross = reader.doubles();
  reader.end_section();
  if (cross.size() != dim * dim) {
    throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                              "streaming moments state is inconsistent");
  }
  window_ = std::move(parsed);
  cross_.data() = std::move(cross);  // same dim * dim shape, checked above
  cov_valid_ = false;
}

double StreamingMoments::covariance(std::size_t i, std::size_t j) const {
  if (count() < 2) throw std::logic_error("covariance needs >= 2 snapshots");
  return cross_(i, j) / static_cast<double>(count() - 1);
}

const linalg::Matrix& StreamingMoments::matrix() const {
  if (count() < 2) throw std::logic_error("covariance needs >= 2 snapshots");
  if (!cov_valid_) {
    const std::size_t dim = window_.dim();
    const double inv = 1.0 / static_cast<double>(count() - 1);
    const auto& src = cross_.data();
    auto& dst = cov_.data();
    util::parallel_for(
        dim, 64,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t idx = begin * dim; idx < end * dim; ++idx) {
            dst[idx] = src[idx] * inv;
          }
        },
        window_.threads());
    cov_valid_ = true;
  }
  return cov_;
}

}  // namespace losstomo::stats

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
    : WindowAccumulator(dim, options), cross_(dim, dim) {}

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
  return index;
}

void StreamingMoments::fold(double wr, double wa) {
  const std::size_t dim = window_.dim();
  const auto& dr = window_.retire_delta();
  const auto& da = window_.add_delta();
  // One sweep over C.  Each entry takes the retire term, then the add term,
  // and a row skips a term whose row weight is zero: the same operations,
  // in the same order, as a retire pass followed by an add pass.
  util::parallel_for(
      dim, 64,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const double wri = wr == 0.0 ? 0.0 : wr * dr[i];
          const double wai = wa * da[i];
          auto row = cross_.row(i);
          if (wri != 0.0 && wai != 0.0) {
            for (std::size_t j = 0; j < dim; ++j) {
              double v = row[j];
              v += wri * dr[j];
              v += wai * da[j];
              row[j] = v;
            }
          } else if (wri != 0.0) {
            for (std::size_t j = 0; j < dim; ++j) row[j] += wri * dr[j];
          } else if (wai != 0.0) {
            for (std::size_t j = 0; j < dim; ++j) row[j] += wai * da[j];
          }
        }
      },
      window_.threads());
}

void StreamingMoments::push(std::span<const double> y) {
  window_.push(y, [this](double wr, double wa) { fold(wr, wa); },
               [this] { refresh(); });
}

void StreamingMoments::refresh() {
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
}

double StreamingMoments::covariance(std::size_t i, std::size_t j) const {
  return view()(i, j);
}

CovarianceView StreamingMoments::view() const {
  if (count() < 2) throw std::logic_error("covariance needs >= 2 snapshots");
  return {cross_, 1.0 / static_cast<double>(count() - 1)};
}

}  // namespace losstomo::stats

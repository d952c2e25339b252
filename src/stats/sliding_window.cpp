#include "stats/sliding_window.hpp"

#include <algorithm>

#include "io/checkpoint.hpp"

namespace losstomo::stats {

SlidingWindow::SlidingWindow(std::size_t dim, StreamingMomentsOptions options)
    : dim_(dim),
      options_(options),
      churn_(dim),
      ring_(dim, options.window),
      mean_(dim, 0.0),
      delta_(dim, 0.0) {
  if (options_.window < 2) throw std::invalid_argument("window must be >= 2");
  if (options_.refresh_every == 0) {
    options_.refresh_every = 2 * options_.window;
  }
}

void SlidingWindow::set_delta(std::span<const double> y) {
  for (std::size_t i = 0; i < dim_; ++i) delta_[i] = y[i] - mean_[i];
}

double SlidingWindow::retire_oldest() {
  const double n = static_cast<double>(count_);
  set_delta(ring_.sample(head_));
  const double n1 = n - 1.0;
  for (std::size_t i = 0; i < dim_; ++i) mean_[i] -= delta_[i] / n1;
  --count_;
  head_ = (head_ + 1) % options_.window;
  return -n / n1;
}

double SlidingWindow::add(std::span<const double> y) {
  std::copy(y.begin(), y.end(),
            ring_.sample((head_ + count_) % options_.window).begin());
  const double n1 = static_cast<double>(count_ + 1);
  set_delta(y);
  for (std::size_t i = 0; i < dim_; ++i) mean_[i] += delta_[i] / n1;
  const double w = static_cast<double>(count_) / n1;
  ++count_;
  ++pushes_;
  return w;
}

bool SlidingWindow::refresh_means() {
  since_refresh_ = 0;
  ++refreshes_;
  if (count_ == 0) return false;
  std::fill(mean_.begin(), mean_.end(), 0.0);
  for (std::size_t l = 0; l < count_; ++l) {
    const auto src = sample(l);
    for (std::size_t i = 0; i < dim_; ++i) mean_[i] += src[i];
  }
  const double inv = 1.0 / static_cast<double>(count_);
  for (auto& m : mean_) m *= inv;
  return true;
}

void SlidingWindow::activate(std::size_t i) {
  if (i >= dim_) throw std::invalid_argument("path out of range");
  churn_.activate(i, pushes_);
}

void SlidingWindow::retire(std::size_t i) {
  if (i >= dim_) throw std::invalid_argument("path out of range");
  churn_.retire(i);
}

std::size_t SlidingWindow::grow(std::size_t count) {
  if (count == 0) throw std::invalid_argument("add_paths needs count >= 1");
  const std::size_t index = dim_;
  const std::size_t next = dim_ + count;
  SnapshotMatrix ring(next, options_.window);
  for (std::size_t l = 0; l < options_.window; ++l) {
    const auto src = ring_.sample(l);
    std::copy(src.begin(), src.end(), ring.sample(l).begin());
  }
  ring_ = std::move(ring);
  mean_.resize(next, 0.0);
  delta_.resize(next, 0.0);
  for (std::size_t k = 0; k < count; ++k) churn_.add_dim(pushes_);
  dim_ = next;
  return index;
}

void SlidingWindow::save_state(io::CheckpointWriter& writer) const {
  churn_.save_state(writer);
  writer.doubles(ring_.flat());
  writer.usize(head_);
  writer.usize(count_);
  writer.usize(pushes_);
  writer.usize(since_refresh_);
  writer.usize(refreshes_);
  writer.doubles(mean_);
}

SlidingWindow SlidingWindow::restore_state(io::CheckpointReader& reader) const {
  SlidingWindow parsed(dim_, options_);
  parsed.churn_.restore_state(reader);
  const std::vector<double> ring = reader.doubles();
  parsed.head_ = reader.usize();
  parsed.count_ = reader.usize();
  parsed.pushes_ = reader.usize();
  parsed.since_refresh_ = reader.usize();
  parsed.refreshes_ = reader.usize();
  parsed.mean_ = reader.doubles();
  if (ring.size() != dim_ * options_.window ||
      parsed.head_ >= options_.window || parsed.count_ > options_.window ||
      parsed.mean_.size() != dim_) {
    throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                              "sliding window state is inconsistent");
  }
  std::copy(ring.begin(), ring.end(), parsed.ring_.sample(0).data());
  return parsed;
}

}  // namespace losstomo::stats

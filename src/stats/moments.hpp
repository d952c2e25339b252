// Sample moments: means, variances, and the unbiased covariance estimator of
// the paper's eq. (7), computed over m snapshots of the path observation
// vector Y.
//
// Two access patterns are provided:
//  * SnapshotMatrix + covariance(i, j): exact pairwise covariances, used by
//    the explicit (drop-negative-equation) Phase-1 estimator on small path
//    sets;
//  * CenteredSnapshots: centred samples exposed so the implicit Phase-1
//    estimator can evaluate per-link sums (sum over paths through a link of
//    centred Y, squared, summed over snapshots) without materialising the
//    np x np covariance matrix.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace losstomo::io {
class CheckpointWriter;
class CheckpointReader;
}  // namespace losstomo::io

namespace losstomo::stats {

/// Row-major collection of m snapshots of an np-dimensional observation:
/// sample(l) returns snapshot l as a span of length np.  Plain storage —
/// concurrent reads are safe; writers need external synchronisation.
/// Accessors do not bounds-check (l < count(), i < dim() are
/// preconditions).
class SnapshotMatrix {
 public:
  SnapshotMatrix(std::size_t dim, std::size_t count);

  /// Builds from a vector of snapshot vectors (each of size dim).
  static SnapshotMatrix from_rows(const std::vector<std::vector<double>>& rows);

  [[nodiscard]] std::size_t dim() const { return dim_; }
  [[nodiscard]] std::size_t count() const { return count_; }

  [[nodiscard]] std::span<double> sample(std::size_t l);
  [[nodiscard]] std::span<const double> sample(std::size_t l) const;

  [[nodiscard]] double& at(std::size_t l, std::size_t i);
  [[nodiscard]] double at(std::size_t l, std::size_t i) const;

  /// Contiguous row-major storage (count() rows of dim() entries); the
  /// layout the blocked covariance kernels consume directly.
  [[nodiscard]] std::span<const double> flat() const { return data_; }

 private:
  std::size_t dim_;
  std::size_t count_;
  std::vector<double> data_;  // count_ rows of dim_ entries
};

/// Per-coordinate sample means of the snapshots.
std::vector<double> sample_means(const SnapshotMatrix& y);

/// Read-only view of a window of `count` snapshots kept in a ring of
/// `capacity` row-major samples; sample(l) is the l-th oldest.  A raw
/// window (a sliding window's ring) leaves centring to the consumer; a
/// centred one (CenteredSnapshots::window()) is already centred on its
/// sample_means.
struct SnapshotWindow {
  std::span<const double> ring;  // capacity rows of dim entries
  std::size_t dim = 0;
  std::size_t capacity = 0;
  std::size_t count = 0;
  std::size_t head = 0;  // ring row of the oldest snapshot
  bool centered = false;

  [[nodiscard]] std::span<const double> sample(std::size_t l) const {
    return ring.subspan(((head + l) % capacity) * dim, dim);
  }
};

/// Centred snapshots plus cached means; the basis for all covariance math.
class CenteredSnapshots {
 public:
  explicit CenteredSnapshots(const SnapshotMatrix& y);

  [[nodiscard]] std::size_t dim() const { return centered_.dim(); }
  [[nodiscard]] std::size_t count() const { return centered_.count(); }
  [[nodiscard]] const std::vector<double>& means() const { return means_; }

  /// Centred snapshot l.
  [[nodiscard]] std::span<const double> sample(std::size_t l) const {
    return centered_.sample(l);
  }

  /// Unbiased sample covariance between coordinates i and j (paper eq. (7)):
  ///   cov(i,j) = 1/(m-1) * sum_l (Y_i^l - mean_i)(Y_j^l - mean_j).
  /// Requires count() >= 2.  O(count()) per call — consumers needing many
  /// pairs should use covariance_matrix() (one blocked pass) instead.
  [[nodiscard]] double covariance(std::size_t i, std::size_t j) const;

  /// Unbiased sample variance of coordinate i.
  [[nodiscard]] double variance(std::size_t i) const { return covariance(i, i); }

  /// Contiguous centred samples (count() rows of dim() entries).
  [[nodiscard]] std::span<const double> flat() const { return centered_.flat(); }
  /// The centred samples as a window, oldest first.
  [[nodiscard]] SnapshotWindow window() const {
    return {.ring = flat(), .dim = dim(), .capacity = count(),
            .count = count(), .centered = true};
  }

 private:
  SnapshotMatrix centered_;
  std::vector<double> means_;
};

/// Full sample covariance matrix S of the snapshots (paper eq. (7)):
/// S_ij = 1/(m-1) sum_l ytilde_i^l ytilde_j^l, computed in one blocked
/// SYRK pass over the centred data (linalg/kernels.hpp).  This is the
/// precomputation that lets the Phase-1 pairwise accumulation drop its
/// O(m) inner loop per path pair.  Requires count() >= 2.
linalg::Matrix covariance_matrix(const CenteredSnapshots& y,
                                 std::size_t threads = 0);

/// Streaming univariate accumulator (count/mean/variance/min/max) used by
/// experiment harnesses to aggregate repeated runs.
class RunningStat {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  /// Unbiased sample variance; 0 when fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Checkpoint hooks (io/checkpoint.hpp): full Welford state round-trips
  /// bit-exactly.
  void save_state(io::CheckpointWriter& writer) const;
  void restore_state(io::CheckpointReader& reader);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;  // sum of squared deviations (Welford)
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Pearson correlation between two equal-length series; returns 0 when
/// either series is constant.
double pearson(std::span<const double> a, std::span<const double> b);

/// Spearman rank correlation (used to quantify the Fig. 3 monotone
/// mean-variance relationship).  Ties get average ranks.
double spearman(std::span<const double> a, std::span<const double> b);

}  // namespace losstomo::stats

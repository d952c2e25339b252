#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace losstomo::linalg {

Cholesky::Cholesky(Matrix a, double min_pivot) : l_(std::move(a)) {
  if (l_.rows() != l_.cols()) throw std::invalid_argument("not square");
  const std::size_t n = l_.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double d = l_(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= l_(j, k) * l_(j, k);
    if (!(d > min_pivot)) throw std::runtime_error("Cholesky: matrix not SPD");
    const double ljj = std::sqrt(d);
    l_(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = l_(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l_(i, k) * l_(j, k);
      l_(i, j) = s / ljj;
    }
    // Zero the strict upper triangle so l() is a clean factor.
    for (std::size_t c = j + 1; c < n; ++c) l_(j, c) = 0.0;
  }
}

Vector Cholesky::solve(std::span<const double> b) const {
  const std::size_t n = l_.rows();
  if (b.size() != n) throw std::invalid_argument("rhs size mismatch");
  Vector w(b.begin(), b.end());
  for (std::size_t i = 0; i < n; ++i) {
    double s = w[i];
    for (std::size_t k = 0; k < i; ++k) s -= l_(i, k) * w[k];
    w[i] = s / l_(i, i);
  }
  for (std::size_t ri = n; ri-- > 0;) {
    double s = w[ri];
    for (std::size_t k = ri + 1; k < n; ++k) s -= l_(k, ri) * w[k];
    w[ri] = s / l_(ri, ri);
  }
  return w;
}

double Cholesky::sqrt_det() const {
  double p = 1.0;
  for (std::size_t i = 0; i < dim(); ++i) p *= l_(i, i);
  return p;
}

RegularizedCholesky::RegularizedCholesky(const Matrix& a, double jitter,
                                         int max_attempts,
                                         double min_pivot_rel) {
  double max_diag = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    max_diag = std::max(max_diag, std::fabs(a(i, i)));
  }
  if (max_diag == 0.0) max_diag = 1.0;
  const double min_pivot = min_pivot_rel * max_diag;

  double eps = 0.0;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Matrix work = a;
    if (eps > 0.0) {
      for (std::size_t i = 0; i < work.rows(); ++i) work(i, i) += eps;
    }
    try {
      holder_.emplace_back(std::move(work), min_pivot);
      jitter_used_ = eps;
      jitter_attempts_ = attempt;
      return;
    } catch (const std::runtime_error&) {
      eps = (eps == 0.0) ? jitter * max_diag : eps * 10.0;
    }
  }
  throw std::runtime_error("RegularizedCholesky: factorization failed");
}

RegularizedCholesky RegularizedCholesky::from_state(Matrix l,
                                                    double jitter_used,
                                                    int jitter_attempts) {
  if (l.rows() != l.cols()) {
    throw std::invalid_argument("from_state: factor must be square");
  }
  RegularizedCholesky chol;
  chol.holder_.push_back(Cholesky(Cholesky::Adopt{}, std::move(l)));
  chol.jitter_used_ = jitter_used;
  chol.jitter_attempts_ = jitter_attempts;
  return chol;
}

Vector RegularizedCholesky::solve(std::span<const double> b) const {
  return holder_.front().solve(b);
}

PivotedCholesky::PivotedCholesky(Matrix a, double rel_tol) {
  if (a.rows() != a.cols()) throw std::invalid_argument("not square");
  const std::size_t n = a.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  double max_pivot0 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    max_pivot0 = std::max(max_pivot0, a(i, i));
  }
  if (max_pivot0 <= 0.0) {
    rank_ = 0;
    return;
  }
  const double cutoff = rel_tol * max_pivot0;

  for (std::size_t k = 0; k < n; ++k) {
    // Select the largest remaining diagonal entry as pivot.
    std::size_t best = k;
    for (std::size_t i = k + 1; i < n; ++i) {
      if (a(i, i) > a(best, best)) best = i;
    }
    if (a(best, best) <= cutoff) break;
    if (best != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(k, c), a(best, c));
      for (std::size_t r = 0; r < n; ++r) std::swap(a(r, k), a(r, best));
      std::swap(perm_[k], perm_[best]);
    }
    const double piv = std::sqrt(a(k, k));
    a(k, k) = piv;
    for (std::size_t i = k + 1; i < n; ++i) a(i, k) /= piv;
    // Keep the trailing block symmetric: the pivot search swaps whole
    // rows/columns, so both triangles must stay current.
    for (std::size_t j = k + 1; j < n; ++j) {
      const double ljk = a(j, k);
      if (ljk == 0.0) continue;
      for (std::size_t i = j; i < n; ++i) {
        a(i, j) -= a(i, k) * ljk;
        a(j, i) = a(i, j);
      }
    }
    ++rank_;
  }
}

IncrementalCholesky::IncrementalCholesky(double rel_tol) : rel_tol_(rel_tol) {}

bool IncrementalCholesky::try_add(double diag, std::span<const double> cross) {
  if (cross.size() != n_) throw std::invalid_argument("cross size mismatch");
  // Forward substitution L w = cross.
  Vector w(n_, 0.0);
  for (std::size_t i = 0; i < n_; ++i) {
    const double* li = row(i);
    double s = cross[i];
    for (std::size_t k = 0; k < i; ++k) s -= li[k] * w[k];
    w[i] = s / li[i];
  }
  double res2 = diag;
  for (const double wi : w) res2 -= wi * wi;
  last_res2_ = res2;
  if (!(res2 > rel_tol_ * std::max(diag, 1e-300))) return false;

  packed_.insert(packed_.end(), w.begin(), w.end());
  packed_.push_back(std::sqrt(res2));
  ++n_;
  return true;
}

Vector IncrementalCholesky::forward(std::span<const double> b) const {
  if (b.size() != n_) throw std::invalid_argument("rhs size mismatch");
  Vector w(n_, 0.0);
  for (std::size_t i = 0; i < n_; ++i) {
    const double* li = row(i);
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= li[k] * w[k];
    w[i] = s / li[i];
  }
  return w;
}

Vector IncrementalCholesky::backward(std::span<const double> w) const {
  if (w.size() != n_) throw std::invalid_argument("rhs size mismatch");
  Vector x(w.begin(), w.end());
  for (std::size_t ri = n_; ri-- > 0;) {
    x[ri] /= row(ri)[ri];
    const double xi = x[ri];
    for (std::size_t i = 0; i < ri; ++i) x[i] -= row(ri)[i] * xi;
  }
  return x;
}

Vector IncrementalCholesky::solve(std::span<const double> b) const {
  const Vector w = forward(b);
  return backward(w);
}

}  // namespace losstomo::linalg

#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace losstomo::linalg {

namespace {

// Rows per panel.  The trailing update streams every row below the panel
// past the panel's rows, so they should stay cache-resident: 48 rows of an
// n = 983 factor are 377 KB.
constexpr std::size_t kPanel = 48;

// Visits every (i, j) with i < j < n, in 32 x 32 tiles, so the strided
// side of a transposition touches a few cache lines per tile.
template <class Visit>
void for_each_strict_upper(std::size_t n, Visit visit) {
  constexpr std::size_t kTile = 32;
  for (std::size_t i0 = 0; i0 < n; i0 += kTile) {
    const std::size_t i1 = std::min(i0 + kTile, n);
    for (std::size_t j0 = i0; j0 < n; j0 += kTile) {
      const std::size_t j1 = std::min(j0 + kTile, n);
      for (std::size_t i = i0; i < i1; ++i) {
        for (std::size_t j = std::max(j0, i + 1); j < j1; ++j) visit(i, j);
      }
    }
  }
}

// Applies the finished rows k0..k1-1 of U (row-major, n x n) to the R rows
// starting at i: u(i + r, j) -= u(k, i + r) * u(k, j) for j >= i, one k at
// a time in ascending order, four k per pass with their multipliers in
// registers.  Because each entry sees its subtractions in ascending k
// whatever the grouping, the result does not depend on R or the panel
// size.  For R = 2 the pass also writes u(i + 1, i), which lies in the
// strict lower triangle and is overwritten by the final transposition.
template <std::size_t R>
void update_rows(double* u, std::size_t n, std::size_t i, std::size_t k0,
                 std::size_t k1) {
  double* __restrict out[R];
  for (std::size_t r = 0; r < R; ++r) out[r] = u + (i + r) * n;
  std::size_t k = k0;
  for (; k + 4 <= k1; k += 4) {
    const double* __restrict r0 = u + k * n;
    const double* __restrict r1 = r0 + n;
    const double* __restrict r2 = r1 + n;
    const double* __restrict r3 = r2 + n;
    double c[R][4];
    for (std::size_t r = 0; r < R; ++r) {
      c[r][0] = r0[i + r];
      c[r][1] = r1[i + r];
      c[r][2] = r2[i + r];
      c[r][3] = r3[i + r];
    }
    for (std::size_t j = i; j < n; ++j) {
      const double x0 = r0[j];
      const double x1 = r1[j];
      const double x2 = r2[j];
      const double x3 = r3[j];
      for (std::size_t r = 0; r < R; ++r) {
        out[r][j] = out[r][j] - c[r][0] * x0 - c[r][1] * x1 - c[r][2] * x2 -
                    c[r][3] * x3;
      }
    }
  }
  for (; k < k1; ++k) {
    const double* __restrict rk = u + k * n;
    for (std::size_t r = 0; r < R; ++r) {
      const double c = rk[i + r];
      for (std::size_t j = i; j < n; ++j) out[r][j] -= c * rk[j];
    }
  }
}

}  // namespace

Cholesky::Cholesky(Matrix a, double min_pivot) : l_(std::move(a)) {
  if (l_.rows() != l_.cols()) throw std::invalid_argument("not square");
  const std::size_t n = l_.rows();
  double* u = l_.data().data();
  // The kernel works on U = L^T in the row-major store, so every update is
  // a contiguous row axpy.  Mirror the lower triangle (the only part read)
  // into the upper one.
  for_each_strict_upper(n, [u, n](std::size_t i, std::size_t j) {
    u[i * n + j] = u[j * n + i];
  });
  // Right-looking over panels of rows: each panel row takes the updates of
  // the panel rows above it, then its pivot; then every trailing row takes
  // the whole panel's updates, two rows per pass.
  for (std::size_t p0 = 0; p0 < n; p0 += kPanel) {
    const std::size_t p1 = std::min(p0 + kPanel, n);
    for (std::size_t i = p0; i < p1; ++i) {
      update_rows<1>(u, n, i, p0, i);
      double* ui = u + i * n;
      const double d = ui[i];
      if (!(d > min_pivot)) {
        throw std::runtime_error("Cholesky: matrix not SPD");
      }
      const double uii = std::sqrt(d);
      ui[i] = uii;
      for (std::size_t j = i + 1; j < n; ++j) ui[j] /= uii;
    }
    std::size_t i = p1;
    for (; i + 2 <= n; i += 2) update_rows<2>(u, n, i, p0, p1);
    if (i < n) update_rows<1>(u, n, i, p0, p1);
  }
  // Back to L = U^T with a zero strict upper triangle.
  for_each_strict_upper(n, [u, n](std::size_t i, std::size_t j) {
    u[j * n + i] = u[i * n + j];
    u[i * n + j] = 0.0;
  });
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

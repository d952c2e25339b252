#include "core/elimination.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace losstomo::core {

namespace {

// Relative tolerance for the dependence test (residual^2 vs column norm^2;
// Gram entries are path counts, so this is essentially exact).
constexpr double kRankTol = 1e-9;

}  // namespace

Elimination eliminate_low_variance_links(const linalg::SparseBinaryMatrix& r,
                                         std::span<const double> variances,
                                         const EliminationOptions& options) {
  const std::size_t nc = r.cols();
  if (variances.size() != nc) {
    throw std::invalid_argument("variance vector size != link count");
  }
  const linalg::CoTraversalGram gram(r);

  Elimination result;
  result.factor = linalg::IncrementalCholesky(kRankTol);
  result.order.resize(nc);
  std::iota(result.order.begin(), result.order.end(), 0u);
  std::stable_sort(result.order.begin(), result.order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return variances[a] > variances[b];
                   });

  // Position of each admitted link in the factor, or kNotKept.
  constexpr std::uint32_t kNotKept = 0xffffffffu;
  std::vector<std::uint32_t> position(nc, kNotKept);

  bool rejecting_rest = false;
  std::vector<double> cross;
  for (const std::uint32_t link : result.order) {
    if (rejecting_rest) {
      result.removed.push_back(link);
      continue;
    }
    // Gram cross-products against the admitted columns, in admission order.
    cross.assign(result.kept.size(), 0.0);
    const auto cols = gram.row_cols(link);
    const auto vals = gram.row_values(link);
    double diag = 0.0;
    for (std::size_t idx = 0; idx < cols.size(); ++idx) {
      if (cols[idx] == link) {
        diag = vals[idx];
      } else if (position[cols[idx]] != kNotKept) {
        cross[position[cols[idx]]] = vals[idx];
      }
    }
    if (result.factor.try_add(diag, cross)) {
      position[link] = static_cast<std::uint32_t>(result.kept.size());
      result.kept.push_back(link);
    } else {
      result.removed.push_back(link);
      if (options.stop_at_first_dependence) rejecting_rest = true;
    }
  }
  return result;
}

}  // namespace losstomo::core

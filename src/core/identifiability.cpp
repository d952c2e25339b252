#include "core/identifiability.hpp"

#include <algorithm>

#include "core/augmented_matrix.hpp"
#include "linalg/cholesky.hpp"

namespace losstomo::core {

namespace {

// Relative pivot tolerance of the rank decisions.
constexpr double kRankTol = 1e-9;

// Rank and pivot set of a PSD Gram matrix via diagonal-pivoted Cholesky.
struct GramRank {
  std::size_t rank = 0;
  std::vector<bool> pivoted;  // true for columns in the pivot basis
};

GramRank gram_rank(const linalg::Matrix& gram) {
  const linalg::PivotedCholesky chol(gram, kRankTol);
  GramRank out;
  out.rank = chol.rank();
  out.pivoted.assign(gram.rows(), false);
  for (std::size_t i = 0; i < chol.rank(); ++i) {
    out.pivoted[chol.permutation()[i]] = true;
  }
  return out;
}

}  // namespace

IdentifiabilityReport analyze_identifiability(
    const linalg::SparseBinaryMatrix& r) {
  IdentifiabilityReport report;
  report.link_count = r.cols();

  const linalg::CoTraversalGram gram(r);
  // rank(R) = rank(R^T R).
  report.routing_rank = gram_rank(gram.to_dense()).rank;
  // rank(A) = rank(A^T A), with (A^T A)_kl = N_kl (N_kl + 1) / 2.
  const auto a_gram = augmented_normal_matrix(gram);
  const auto a_rank = gram_rank(a_gram);
  report.augmented_rank = a_rank.rank;
  for (std::uint32_t k = 0; k < report.link_count; ++k) {
    if (!a_rank.pivoted[k]) report.unidentifiable_links.push_back(k);
  }
  return report;
}

}  // namespace losstomo::core

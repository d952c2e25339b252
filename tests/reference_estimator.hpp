// Scalar references of the Phase-1 covariance-system build, the baselines
// the blocked/parallel kernels in core/variance_estimator.cpp are pinned
// against (tests/core/variance_estimator_parity_test.cpp,
// tests/core/augmented_matrix_test.cpp).  They are the seed's sequential
// loops, kept verbatim: per-pair O(m) covariance passes, serial
// accumulation.
#pragma once

#include "core/variance_estimator.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "stats/moments.hpp"

namespace losstomo::testing {

/// Pairwise accumulation (the drop-negative policy when `drop_negative`):
/// every path pair recomputes its sample covariance with an O(m) inner
/// loop.  The blocked build matches it to last-ulps rounding.
core::NormalEquations accumulate_pairwise_reference(
    const linalg::SparseBinaryMatrix& r, const stats::CenteredSnapshots& y,
    bool drop_negative);

/// Closed form (keep-all): the seed's snapshot-outer path-variance sweep
/// and serial per-link sums.  The parallel build preserves every
/// per-element summation order, so the two are exactly equal.
core::NormalEquations accumulate_closed_form_reference(
    const linalg::SparseBinaryMatrix& r, const stats::CenteredSnapshots& y);

/// Packed sample covariances Sigma*_(i,j), i <= j, aligned with
/// core::build_augmented_matrix's rows: O(np^2 m) pairwise passes.
linalg::Vector packed_covariances(const stats::CenteredSnapshots& y);

}  // namespace losstomo::testing

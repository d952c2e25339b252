#include "core/lia.hpp"

#include <stdexcept>
#include <utility>

namespace losstomo::core {

Lia::Lia(linalg::SparseBinaryMatrix r, LiaOptions options)
    : r_(std::move(r)), gram_(r_), options_(options) {}

const VarianceEstimate& Lia::learn(const stats::SnapshotMatrix& history) {
  return adopt(
      estimate_link_variances(r_, history, options_.variance, &gram_));
}

const VarianceEstimate& Lia::learn_from_variances(linalg::Vector variances) {
  VarianceEstimate est;
  est.v = std::move(variances);
  est.method = "external";
  return adopt(std::move(est));
}

const VarianceEstimate& Lia::adopt(VarianceEstimate estimate) {
  variance_ = std::move(estimate);
  elimination_ =
      eliminate_low_variance_links(gram_, variance_->v, options_.elimination);
  return *variance_;
}

LossInference Lia::infer(std::span<const double> y) const {
  if (!elimination_) throw std::logic_error("Lia::infer before learn");
  return infer_snapshot_losses(r_, *elimination_, y);
}

const VarianceEstimate& Lia::variances() const {
  if (!variance_) throw std::logic_error("variances unavailable before learn");
  return *variance_;
}

const Elimination& Lia::elimination() const {
  if (!elimination_) {
    throw std::logic_error("elimination unavailable before learn");
  }
  return *elimination_;
}

}  // namespace losstomo::core

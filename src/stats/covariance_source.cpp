#include "stats/covariance_source.hpp"

#include "io/checkpoint.hpp"
#include "io/checkpoint_tags.hpp"

namespace losstomo::stats {

void PathChurnLedger::save_state(io::CheckpointWriter& writer) const {
  writer.begin_section(io::tags::kChurnLedger);
  writer.u8s(active_);
  writer.sizes(activated_at_);
  writer.end_section();
}

void PathChurnLedger::restore_state(io::CheckpointReader& reader) {
  reader.expect_section(io::tags::kChurnLedger);
  std::vector<std::uint8_t> active = reader.u8s();
  std::vector<std::size_t> activated_at = reader.sizes();
  reader.end_section();
  if (active.size() != active_.size() ||
      activated_at.size() != activated_at_.size()) {
    throw io::CheckpointError(
        io::CheckpointErrorKind::kMismatch,
        "churn ledger dimension " + std::to_string(active.size()) +
            ", expected " + std::to_string(active_.size()));
  }
  active_ = std::move(active);
  activated_at_ = std::move(activated_at);
}

BatchCovarianceSource::BatchCovarianceSource(const SnapshotMatrix& y,
                                             std::size_t threads)
    : centered_(y), threads_(threads) {}

CovarianceView BatchCovarianceSource::view() const {
  if (!cached_) cached_ = covariance_matrix(centered_, threads_);
  return {*cached_, 1.0};
}

}  // namespace losstomo::stats

#include "feed.hpp"

#include <cstring>

namespace perfbench {

void ChurnLedger::apply(const ChurnEvent& event, std::size_t ticks) {
  switch (event.kind) {
    case ChurnEvent::Kind::kJoin:
      if (active[event.path] == 0) activated[event.path] = ticks;
      active[event.path] = 1;
      break;
    case ChurnEvent::Kind::kLeave:
      active[event.path] = 0;
      break;
    case ChurnEvent::Kind::kGrow:
      active.resize(active.size() + event.rows.size(), 1);
      activated.resize(active.size(), ticks);
      break;
  }
}

void KnownRows::do_push(const losstomo::io::SnapshotBatch& batch) {
  const std::size_t width = ledger_->active.size();
  buffer_.resize(batch.rows * width);
  for (std::size_t r = 0; r < batch.rows; ++r) {
    const double* in = batch.values.data() + r * batch.paths;
    double* out = buffer_.data() + r * width;
    for (std::size_t i = 0; i < width; ++i) {
      out[i] = ledger_->active[i] != 0 ? in[i] : 0.0;
    }
  }
  emit({.values = buffer_,
        .rows = batch.rows,
        .paths = width,
        .log_transformed = batch.log_transformed});
}

bool bit_identical(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace perfbench

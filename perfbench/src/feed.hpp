// Pieces shared by the untraced and the traced run: the churn ledger, the
// pipeline element that narrows universe-wide trace rows to the paths a
// monitor knows, and the bit-for-bit comparison of inferences.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "io/pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Which known paths are active, and the tick each was last activated at —
/// the same bookkeeping LiaMonitor keeps, so the benchmark can zero the
/// inactive paths it feeds and materialise the window a batch relearn
/// would see.
struct ChurnLedger {
  std::vector<std::uint8_t> active;
  std::vector<std::size_t> activated;

  explicit ChurnLedger(std::size_t paths) : active(paths, 1), activated(paths, 0) {}

  /// Records `event` applied after `ticks` snapshots were consumed.
  void apply(const ChurnEvent& event, std::size_t ticks);

  /// LiaMonitor's readiness rule: path i's window entries are all real
  /// measurements at the tick consuming trace row `row`.
  [[nodiscard]] bool full(std::size_t i, std::size_t row,
                          std::size_t window) const {
    return active[i] != 0 && row - activated[i] >= window;
  }
};

/// Trims each row to the ledger's known paths and writes the monitor's
/// deterministic 0.0 filler for inactive ones.  The ledger must outlive
/// the element.
class KnownRows final : public losstomo::io::Element {
 public:
  explicit KnownRows(const ChurnLedger& ledger) : ledger_(&ledger) {}
  void do_push(const losstomo::io::SnapshotBatch& batch) override;

 private:
  const ChurnLedger* ledger_;
  std::vector<double> buffer_;
};

/// Same length and the same bits in every entry (so -0.0 != 0.0 and a NaN
/// matches only itself).
bool bit_identical(std::span<const double> a, std::span<const double> b);

}  // namespace perfbench

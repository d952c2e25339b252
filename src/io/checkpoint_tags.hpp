// The single registry of LTCP section tags.
//
// Every tagged section in a checkpoint image is opened with
// CheckpointWriter::begin_section and re-validated with
// CheckpointReader::expect_section.  The PR 8 store-order bug was a
// save/restore asymmetry that survived review because the tag literals —
// and therefore the section inventory — were scattered across call
// sites.  This header is now the only place a section tag may be
// *defined*: call sites reference these constants, and the repo lint
// (tools/losstomo_lint.py, rule checkpoint-symmetry) rejects raw string
// literals passed to begin_section/expect_section anywhere else, and
// rejects duplicate tag values here.
//
// Rules for adding a tag:
//   * exactly four ASCII characters (pad with a trailing space, as
//     kRng does) — CheckpointWriter::begin_section enforces the width;
//   * unique across this file — two components sharing a tag would make
//     a truncated or reordered image parse as the wrong section;
//   * name the owning component, not the payload shape.
#pragma once

namespace losstomo::io::tags {

// stats/ — leaf state serialized inside larger component sections.
inline constexpr char kRng[] = "RNG ";              // stats::Rng
inline constexpr char kRunningStat[] = "RSTA";      // stats::RunningStat
inline constexpr char kStreamingMoments[] = "SMOM"; // stats::StreamingMoments
inline constexpr char kSnapshotRing[] = "RING";     // stats::SnapshotRing
inline constexpr char kChurnLedger[] = "CHRN";      // stats::PathChurnLedger

// core/ — the estimation engine.
inline constexpr char kSharingPairs[] = "PAIR";     // core::SharingPairStore
inline constexpr char kPairMoments[] = "PMOM";      // core::PairMoments
inline constexpr char kNormalEquations[] = "SNEQ";  // core::StreamingNormalEquations
inline constexpr char kVarianceEstimate[] = "VEST"; // core::VarianceEstimate
inline constexpr char kMonitor[] = "LMON";          // core::LiaMonitor

// sim/ + scenario/ — the workload side of a resumable run.
inline constexpr char kProbeSim[] = "PSIM";         // sim::SnapshotSimulator
inline constexpr char kScenarioRunner[] = "SRUN";   // scenario::ScenarioRunner

}  // namespace losstomo::io::tags

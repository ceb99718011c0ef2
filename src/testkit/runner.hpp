// Executes one ScenarioSpec end to end and checks every invariant.
//
// The runner builds the cluster and the system under test from the spec,
// arms its fault plan and drives its workload through the run path uvsim
// shares (workload::ArmFaults, workload::DriveWorkload), injects a point
// node failure at a deterministic milestone, drains the simulation, and
// runs the battery from invariants.hpp that `uvsim --check` runs too. For
// UniviStor specs without failure it also replays the identical workload
// through the Lustre baseline and compares the resulting per-file sizes
// (differential read-back: both systems must expose exactly the bytes the
// application wrote).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "src/common/units.hpp"
#include "src/testkit/invariants.hpp"
#include "src/testkit/scenario_spec.hpp"

namespace uvs::testkit {

struct RunOutcome {
  ScenarioSpec spec;
  InvariantReport report;
  /// Logical size of every file the workload created, keyed by name.
  std::map<std::string, Bytes> file_sizes;
  /// Bytes unreachable after failure injection: actual (system counter)
  /// and the exact expectation derived from the metadata (volatile-layer
  /// records of the failed node with no replica and no PFS fallback).
  Bytes lost_bytes = 0;
  Bytes expected_lost_bytes = 0;
  Time sim_time = 0;
  /// Spans the installed obs::Recorder dropped at its cap during this run
  /// (0 when no recorder is installed); callers surface it so a truncated
  /// trace never passes silently.
  std::uint64_t spans_dropped = 0;

  bool ok() const { return report.ok(); }
};

struct RunOptions {
  /// Replay UniviStor no-failure specs through LustreDriver and compare
  /// per-file sizes.
  bool differential = true;
};

/// Never throws: an escaped exception becomes an "exception" violation.
RunOutcome RunScenario(const ScenarioSpec& spec, const RunOptions& options = {});

}  // namespace uvs::testkit

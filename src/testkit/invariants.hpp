// Whole-system invariant checks for fuzzed end-to-end runs.
//
// Each checker appends human-readable violations to an InvariantReport;
// an empty report means the run upheld every checked property:
//  * byte conservation — every byte accepted by Write() is placed on
//    exactly one layer of its producer's DHP chain;
//  * metadata coverage — records tile the written ranges with no overlap
//    and account for every written byte (write-once workloads);
//  * VA round-trip — every record's virtual address decodes to a
//    (layer, physical) pair that re-encodes to the same VA (Eq. 1);
//  * range partitioning — each metadata partition only holds records of
//    ranges it owns, no record spans a range boundary, and the partitions
//    union to the global view;
//  * pool conservation — no bandwidth pool delivered more bytes than
//    peak_capacity x busy_time allows;
//  * quiescence — once the event queue drains, no simulation process is
//    left stranded (a stranded process is a deadlock).
//
// The narrow checkers take plain data so unit tests can feed synthetic
// violations; the aggregate ones walk a live system. CheckSingleRun and
// CheckClusterRun are the batteries a finished run gets, the same from
// `uvsim --check` and from the fuzzer.
#pragma once

#include <string>
#include <vector>

#include "src/common/units.hpp"
#include "src/meta/record.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/fair_share.hpp"
#include "src/storage/pfs.hpp"
#include "src/univistor/system.hpp"
#include "src/workload/scenario.hpp"

namespace uvs::cluster {
class ClusterSim;
}

namespace uvs::testkit {

struct Violation {
  std::string invariant;  // short id, e.g. "byte-conservation"
  std::string detail;     // what was expected vs observed
};

struct InvariantReport {
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
  void Add(std::string invariant, std::string detail) {
    violations.push_back({std::move(invariant), std::move(detail)});
  }
  /// One line per violation; "all invariants hold" when empty.
  std::string ToString() const;
};

/// Checks that `records` (offset-sorted, as meta::Query returns) are
/// pairwise disjoint and sum to `expected_bytes`. Valid for write-once
/// workloads, where coverage equals total bytes written. `label` names the
/// file in violation messages.
void CheckRecordCoverage(const std::vector<meta::MetadataRecord>& records, Bytes expected_bytes,
                         const std::string& label, InvariantReport& report);

/// Checks one bandwidth pool's service against its capacity envelope
/// (sim::FairSharePool::Conserves), and that no flow is still queued once
/// the simulation has drained.
void CheckPool(const sim::FairSharePool& pool, InvariantReport& report);

/// Byte conservation, metadata coverage, VA round-trips, and partition
/// ownership for every file the system holds.
void CheckUniviStor(const univistor::UniviStor& system, InvariantReport& report);

/// CheckPool over every pool in the machine: per-node NICs, NUMA DRAM,
/// local SSDs, the CPU pools of registered processes, BB nodes, and PFS
/// OSTs. A retired process's pool was checked when it was freed
/// (sched::NodeScheduler::RemoveProcess).
void CheckPoolConservation(workload::Scenario& scenario, InvariantReport& report);

/// After Run() has drained: no live (stranded) processes remain.
void CheckQuiescence(const sim::Engine& engine, InvariantReport& report);

/// After a cluster::ClusterSim run: every job retired its client and server
/// programs, so no node scheduler holds a registered process.
void CheckProcessesRetired(workload::Scenario& scenario, InvariantReport& report);

/// Erasure-coding invariants after quiescence:
///  * parity consistency — every materialized stripe's parity snapshots
///    equal its applied data versions (no write left parity torn);
///  * redundancy bound — while no stripe ever saw more than its m shards
///    dead or latent-corrupt at once, ec_lost_bytes must be zero.
void CheckErasure(const storage::Pfs& pfs, InvariantReport& report);

/// Lost-byte expectation after node failure, derived record by record from
/// the metadata: a read is lost iff its record sits on a volatile layer
/// (DRAM/SSD) of a failed node, the BB replica watermark does not cover its
/// physical extent, and neither does the PFS durability watermark. This is
/// deliberately NOT short-circuited on replicate_volatile or HasPfsCopy:
/// replication and flushes are watermarks, so a file can have a PFS copy
/// and still lose the extents written after the flush snapshot (the
/// historical FailNode under-reporting bug). Exact when the failure happens
/// at a drained point and each written byte is read back at most once; an
/// upper bound for seed-timed plans, where reads that beat the crash
/// succeed but still qualify here.
Bytes ExpectedLostBytes(const univistor::UniviStor& system, vmpi::Runtime& runtime);

/// The battery after a single run drained: quiescence, pool conservation,
/// erasure coding, and for a UniviStor deployment (`system`, nullable) its
/// invariants and lost-byte accounting. With `faults_armed`, a plan's
/// crashes landed at arbitrary points relative to the reads, so the loss
/// may not exceed the ExpectedLostBytes bound; otherwise it must equal
/// `expected_lost` (derived when a failure was injected at a drained point,
/// else 0). Returns the expectation the loss was checked against.
Bytes CheckSingleRun(workload::Scenario& scenario, const univistor::UniviStor* system,
                     bool faults_armed, Bytes expected_lost, InvariantReport& report);

/// The battery after a cluster::ClusterSim run drained: quiescence, pool
/// conservation, process lifetime, every job arrived and completed, BB
/// reservations within capacity, erasure coding, and per tenant the
/// UniviStor invariants and lost-byte accounting (bounded per tenant with
/// `faults_armed`, else zero). Returns the summed lost-byte expectation.
Bytes CheckClusterRun(workload::Scenario& scenario, const cluster::ClusterSim& sim,
                      bool faults_armed, InvariantReport& report);

}  // namespace uvs::testkit

#include "src/testkit/invariants.hpp"

#include <sstream>

#include "src/cluster/simulation.hpp"
#include "src/hw/params.hpp"
#include "src/placement/dhp.hpp"
#include "src/placement/virtual_address.hpp"

namespace uvs::testkit {

std::string InvariantReport::ToString() const {
  if (ok()) return "all invariants hold";
  std::ostringstream out;
  for (const auto& v : violations) out << "[" << v.invariant << "] " << v.detail << "\n";
  return out.str();
}

void CheckRecordCoverage(const std::vector<meta::MetadataRecord>& records, Bytes expected_bytes,
                         const std::string& label, InvariantReport& report) {
  Bytes covered = 0;
  Bytes prev_end = 0;
  bool first = true;
  for (const auto& rec : records) {
    if (rec.len == 0) {
      report.Add("metadata-coverage", label + ": zero-length record at offset " +
                                          std::to_string(rec.offset));
      continue;
    }
    if (!first && rec.offset < prev_end) {
      report.Add("metadata-coverage",
                 label + ": records overlap at offset " + std::to_string(rec.offset) +
                     " (previous record ends at " + std::to_string(prev_end) + ")");
    }
    prev_end = rec.end();
    first = false;
    covered += rec.len;
  }
  if (covered != expected_bytes) {
    report.Add("metadata-coverage", label + ": records cover " + std::to_string(covered) +
                                        " bytes, expected " + std::to_string(expected_bytes));
  }
}

void CheckPool(const sim::FairSharePool& pool, InvariantReport& report) {
  if (pool.active_flows() != 0) {
    report.Add("pool-quiescence", "pool '" + pool.name() + "' still has " +
                                      std::to_string(pool.active_flows()) +
                                      " active flows after the simulation drained");
  }
  if (!pool.Conserves()) {
    std::ostringstream out;
    out << "pool '" << pool.name() << "' delivered " << static_cast<double>(pool.total_bytes())
        << " bytes but peak_capacity(" << pool.peak_capacity() << ") * busy_time("
        << pool.busy_time() << ") only allows " << pool.ServiceBudget();
    report.Add("pool-conservation", out.str());
  }
}

namespace {

/// VA round-trip (Eq. 1) for every record of one file.
void CheckVaRoundTrips(const univistor::UniviStor& system, storage::FileId fid,
                       const std::vector<meta::MetadataRecord>& records, const std::string& label,
                       InvariantReport& report) {
  for (const auto& rec : records) {
    const placement::DhpWriterChain* chain = system.FindChain(fid, rec.producer);
    if (chain == nullptr) {
      report.Add("va-roundtrip", label + ": record at offset " + std::to_string(rec.offset) +
                                     " names producer " + std::to_string(rec.producer) +
                                     " which has no DHP chain");
      continue;
    }
    const auto decoded = chain->codec().Decode(rec.va);
    if (!decoded.ok()) {
      report.Add("va-roundtrip", label + ": VA " + std::to_string(rec.va) +
                                     " does not decode: " + decoded.status().ToString());
      continue;
    }
    const auto reencoded = chain->codec().Encode(decoded->layer, decoded->physical);
    if (!reencoded.ok() || *reencoded != rec.va) {
      report.Add("va-roundtrip",
                 label + ": VA " + std::to_string(rec.va) + " decodes to (layer " +
                     std::to_string(static_cast<int>(decoded->layer)) + ", physical " +
                     std::to_string(decoded->physical) + ") which re-encodes to " +
                     (reencoded.ok() ? std::to_string(*reencoded) : reencoded.status().ToString()));
    }
  }
}

/// Range-partition ownership: each partition only holds records of ranges
/// it owns, no record crosses a range boundary, and the partitions union
/// to the global record set.
void CheckPartitioning(const meta::DistributedMetadataService& metadata, storage::FileId fid,
                       Bytes logical_size, std::size_t global_records, Bytes global_bytes,
                       const std::string& label, InvariantReport& report) {
  const kv::RangePartitioner& part = metadata.partitioner();
  std::size_t union_records = 0;
  Bytes union_bytes = 0;
  for (int server = 0; server < metadata.server_count(); ++server) {
    for (const auto& rec : metadata.QueryPartition(server, fid, 0, logical_size)) {
      if (rec.len == 0) continue;
      if (part.ServerOf(rec.offset) != server) {
        report.Add("metadata-partitioning",
                   label + ": server " + std::to_string(server) + " holds a record at offset " +
                       std::to_string(rec.offset) + " owned by server " +
                       std::to_string(part.ServerOf(rec.offset)));
      }
      if (part.RangeOf(rec.offset) != part.RangeOf(rec.end() - 1)) {
        report.Add("metadata-partitioning",
                   label + ": record [" + std::to_string(rec.offset) + ", " +
                       std::to_string(rec.end()) + ") spans a range boundary (range size " +
                       std::to_string(part.range_size()) + ")");
      }
      ++union_records;
      union_bytes += rec.len;
    }
  }
  if (union_records != global_records || union_bytes != global_bytes) {
    report.Add("metadata-partitioning",
               label + ": partitions union to " + std::to_string(union_records) + " records / " +
                   std::to_string(union_bytes) + " bytes, global query sees " +
                   std::to_string(global_records) + " records / " + std::to_string(global_bytes) +
                   " bytes");
  }
}

}  // namespace

void CheckUniviStor(const univistor::UniviStor& system, InvariantReport& report) {
  for (int f = 0; f < system.file_count(); ++f) {
    const auto fid = static_cast<storage::FileId>(f);
    const std::string label = "file '" + system.FileName(fid) + "'";
    const Bytes written = system.BytesWritten(fid);
    const Bytes logical_size = system.LogicalSize(fid);

    // Byte conservation across the DHP cascade: every byte accepted by
    // Write() was placed on exactly one layer (flush copies to the PFS but
    // never evicts, so cached totals are monotone).
    Bytes placed = 0;
    for (int l = 0; l < hw::kLayerCount; ++l)
      placed += system.CachedOn(fid, static_cast<hw::Layer>(l));
    if (placed != written) {
      report.Add("byte-conservation", label + ": " + std::to_string(written) +
                                          " bytes written but " + std::to_string(placed) +
                                          " bytes placed across the DHP layers");
    }

    const auto records = system.metadata().Query(fid, 0, logical_size);
    CheckRecordCoverage(records, written, label, report);
    CheckVaRoundTrips(system, fid, records, label, report);

    Bytes global_bytes = 0;
    for (const auto& rec : records) global_bytes += rec.len;
    CheckPartitioning(system.metadata(), fid, logical_size, records.size(), global_bytes, label,
                      report);
  }
}

void CheckPoolConservation(workload::Scenario& scenario, InvariantReport& report) {
  hw::Cluster& cluster = scenario.cluster();
  for (int n = 0; n < cluster.node_count(); ++n) {
    hw::Node& node = cluster.node(n);
    CheckPool(node.nic_tx(), report);
    CheckPool(node.nic_rx(), report);
    for (int s = 0; s < node.sockets(); ++s) CheckPool(node.socket(s).dram(), report);
    if (node.has_local_ssd()) CheckPool(node.local_ssd(), report);
    sched::NodeScheduler& sched = scenario.runtime().Scheduler(n);
    for (int p = 0; p < sched.process_count(); ++p)
      if (sched.IsRegistered(p)) CheckPool(sched.cpu(p), report);
  }
  for (int b = 0; b < cluster.burst_buffer().size(); ++b)
    CheckPool(cluster.burst_buffer().pool(b), report);
  for (int o = 0; o < cluster.pfs().size(); ++o) CheckPool(cluster.pfs().pool(o), report);
}

Bytes ExpectedLostBytes(const univistor::UniviStor& system, vmpi::Runtime& runtime) {
  Bytes lost = 0;
  for (int f = 0; f < system.file_count(); ++f) {
    const auto fid = static_cast<storage::FileId>(f);
    const bool has_pfs = system.HasPfsCopy(fid);
    for (const auto& rec : system.metadata().Query(fid, 0, system.LogicalSize(fid))) {
      const placement::DhpWriterChain* chain = system.FindChain(fid, rec.producer);
      if (chain == nullptr) continue;
      const auto decoded = chain->codec().Decode(rec.va);
      if (!decoded.ok()) continue;
      if (decoded->layer != hw::Layer::kDram && decoded->layer != hw::Layer::kNodeLocalSsd)
        continue;
      const auto program = univistor::ProducerProgram(rec.producer);
      const int rank = univistor::ProducerRank(rec.producer);
      if (!system.NodeFailed(runtime.Rank(program, rank).node)) continue;
      if (system.config().replicate_volatile &&
          system.ReplicaCovers(fid, rec.producer, decoded->layer, decoded->physical, rec.len))
        continue;
      if (has_pfs &&
          system.DurableCovers(fid, rec.producer, decoded->layer, decoded->physical, rec.len))
        continue;
      lost += rec.len;
    }
  }
  return lost;
}

void CheckQuiescence(const sim::Engine& engine, InvariantReport& report) {
  if (engine.live_processes() == 0) return;
  std::ostringstream out;
  out << engine.live_processes() << " processes stranded after the event queue drained:";
  const auto names = engine.UnfinishedProcessNames();
  const std::size_t shown = names.size() < 8 ? names.size() : 8;
  for (std::size_t i = 0; i < shown; ++i) out << " '" << names[i] << "'";
  if (names.size() > shown) out << " (+" << names.size() - shown << " more)";
  report.Add("quiescence", out.str());
}

void CheckProcessesRetired(workload::Scenario& scenario, InvariantReport& report) {
  for (int n = 0; n < scenario.cluster().node_count(); ++n) {
    const int live = scenario.runtime().Scheduler(n).live_process_count();
    if (live != 0)
      report.Add("process-lifetime", "node " + std::to_string(n) + " still schedules " +
                                         std::to_string(live) + " processes of finished jobs");
  }
}

void CheckErasure(const storage::Pfs& pfs, InvariantReport& report) {
  const auto verify = pfs.VerifyParity();
  if (verify.torn > 0) {
    std::ostringstream out;
    out << verify.torn << " of " << verify.stripes_checked
        << " stripes have parity snapshots disagreeing with applied data versions "
           "after quiescence";
    report.Add("ec-parity-consistency", out.str());
  }
  if (!pfs.ec_redundancy_exceeded() && pfs.ec_lost_bytes() > 0) {
    std::ostringstream out;
    out << pfs.ec_lost_bytes()
        << " bytes counted lost although no stripe ever exceeded its parity budget "
           "(failed+latent shards <= m throughout)";
    report.Add("ec-redundancy-bound", out.str());
  }
}

namespace {

/// Lost-byte accounting of one UniviStor deployment; `who` names it in
/// violations. Returns the expectation the loss was checked against.
Bytes CheckLostBytes(const univistor::UniviStor& system, vmpi::Runtime& runtime,
                     bool faults_armed, Bytes expected, const std::string& who,
                     InvariantReport& report) {
  const Bytes lost = system.lost_bytes();
  if (faults_armed) {
    // The watermark expectation is an upper bound here: reads that beat
    // the crash legitimately succeed ("bytes lost never exceed the
    // un-replicated, un-flushed dirty window of the dead nodes").
    expected = ExpectedLostBytes(system, runtime);
    if (lost > expected)
      report.Add("lost-bound", who + " reports " + std::to_string(lost) +
                                   " lost bytes, above the metadata-derived bound of " +
                                   std::to_string(expected));
  } else if (lost != expected) {
    report.Add("lost-accounting", who + " reports " + std::to_string(lost) +
                                      " lost bytes, metadata-derived expectation is " +
                                      std::to_string(expected));
  }
  return expected;
}

}  // namespace

Bytes CheckSingleRun(workload::Scenario& scenario, const univistor::UniviStor* system,
                     bool faults_armed, Bytes expected_lost, InvariantReport& report) {
  CheckQuiescence(scenario.engine(), report);
  CheckPoolConservation(scenario, report);
  CheckErasure(scenario.pfs(), report);
  if (system == nullptr) return expected_lost;
  CheckUniviStor(*system, report);
  return CheckLostBytes(*system, scenario.runtime(), faults_armed, expected_lost, "system",
                        report);
}

Bytes CheckClusterRun(workload::Scenario& scenario, const cluster::ClusterSim& sim,
                      bool faults_armed, InvariantReport& report) {
  CheckQuiescence(scenario.engine(), report);
  CheckPoolConservation(scenario, report);
  CheckProcessesRetired(scenario, report);
  if (sim.arrived_jobs() != sim.job_count())
    report.Add("cluster-conservation", std::to_string(sim.arrived_jobs()) + " of " +
                                           std::to_string(sim.job_count()) + " jobs arrived");
  if (sim.completed_jobs() != sim.arrived_jobs())
    report.Add("cluster-starvation", std::to_string(sim.arrived_jobs() - sim.completed_jobs()) +
                                         " arrived jobs never completed (queued or stranded)");
  if (sim.peak_bb_reserved() > sim.bb_capacity())
    report.Add("cluster-bb-capacity",
               "peak BB reservation " + std::to_string(sim.peak_bb_reserved()) +
                   " exceeds capacity " + std::to_string(sim.bb_capacity()));
  CheckErasure(scenario.pfs(), report);
  Bytes expected_lost = 0;
  for (int j = 0; j < sim.job_count(); ++j) {
    const univistor::UniviStor* system = sim.system(j);
    if (system == nullptr) continue;
    CheckUniviStor(*system, report);
    expected_lost += CheckLostBytes(*system, scenario.runtime(), faults_armed, 0,
                                    "job " + std::to_string(j), report);
  }
  return expected_lost;
}

}  // namespace uvs::testkit

#include "src/vmpi/runtime.hpp"

#include <algorithm>
#include <cassert>

#include "src/vmpi/comm.hpp"

namespace uvs::vmpi {

Runtime::Runtime(hw::Cluster& cluster, sched::PlacementPolicy policy)
    : cluster_(&cluster), policy_(policy) {
  schedulers_.reserve(static_cast<std::size_t>(cluster.node_count()));
  for (int n = 0; n < cluster.node_count(); ++n) {
    schedulers_.push_back(std::make_unique<sched::NodeScheduler>(
        cluster.engine(), cluster.node(n), policy, cluster.rng().Fork()));
  }
}

Runtime::~Runtime() = default;

ProgramId Runtime::LaunchProgram(std::string name, int nprocs, bool is_server) {
  std::vector<int> all_nodes(static_cast<std::size_t>(cluster_->node_count()));
  for (int n = 0; n < cluster_->node_count(); ++n)
    all_nodes[static_cast<std::size_t>(n)] = n;
  return LaunchProgramOn(std::move(name), nprocs, all_nodes, is_server);
}

ProgramId Runtime::LaunchProgramOn(std::string name, int nprocs,
                                   const std::vector<int>& nodes, bool is_server) {
  assert(!nodes.empty());
  const auto prog_id = static_cast<ProgramId>(programs_.size());
  Program prog;
  prog.name = std::move(name);
  prog.is_server = is_server;
  prog.ranks.reserve(static_cast<std::size_t>(nprocs));
  const int width = static_cast<int>(nodes.size());
  const int per_node = (nprocs + width - 1) / width;
  for (int r = 0; r < nprocs; ++r) {
    const int node = nodes.at(static_cast<std::size_t>(std::min(r / per_node, width - 1)));
    const int sched_proc = Scheduler(node).AddProcess(prog_id, is_server);
    prog.ranks.push_back(RankInfo{node, sched_proc});
  }
  prog.comm =
      std::make_unique<Comm>(cluster_->engine(), nprocs, cluster_->params().rpc_latency);
  programs_.push_back(std::move(prog));
  return prog_id;
}

void Runtime::RetireProgram(ProgramId prog) {
  for (const RankInfo& info : programs_.at(static_cast<std::size_t>(prog)).ranks)
    Scheduler(info.node).RemoveProcess(info.sched_proc);
}

int Runtime::RanksOnNode(ProgramId prog, int node) const {
  int count = 0;
  for (const RankInfo& info : programs_.at(static_cast<std::size_t>(prog)).ranks)
    if (info.node == node) ++count;
  return count;
}

int Runtime::ProgramSize(ProgramId prog) const {
  return static_cast<int>(programs_.at(static_cast<std::size_t>(prog)).ranks.size());
}

const std::string& Runtime::ProgramName(ProgramId prog) const {
  return programs_.at(static_cast<std::size_t>(prog)).name;
}

bool Runtime::IsServer(ProgramId prog) const {
  return programs_.at(static_cast<std::size_t>(prog)).is_server;
}

const RankInfo& Runtime::Rank(ProgramId prog, int rank) const {
  return programs_.at(static_cast<std::size_t>(prog))
      .ranks.at(static_cast<std::size_t>(rank));
}

Comm& Runtime::comm(ProgramId prog) {
  return *programs_.at(static_cast<std::size_t>(prog)).comm;
}

sim::FairSharePool& Runtime::RankCpu(ProgramId prog, int rank) {
  const RankInfo& info = Rank(prog, rank);
  return Scheduler(info.node).cpu(info.sched_proc);
}

sim::FairSharePool& Runtime::RankDram(ProgramId prog, int rank) {
  const RankInfo& info = Rank(prog, rank);
  return Scheduler(info.node).dram(info.sched_proc);
}

void Runtime::SetRankBusy(ProgramId prog, int rank, bool busy) {
  const RankInfo& info = Rank(prog, rank);
  Scheduler(info.node).SetBusy(info.sched_proc, busy);
}

void Runtime::BeginServerFlushAllNodes() {
  for (auto& sched : schedulers_) sched->BeginServerFlush();
}

void Runtime::EndServerFlushAllNodes() {
  for (auto& sched : schedulers_) sched->EndServerFlush();
}

}  // namespace uvs::vmpi

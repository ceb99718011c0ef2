// Virtual MPI runtime: parallel programs whose ranks are simulation
// processes placed on cluster nodes by the per-node scheduler.
//
// This plays the role MPICH plays in the paper (§II-F): programs are
// launched within one job, ranks map block-wise onto compute nodes, and
// every rank is registered with its node's scheduler (which models CFS or
// UniviStor's interference-aware placement) until its program retires.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/hw/cluster.hpp"
#include "src/sched/node_scheduler.hpp"

namespace uvs::vmpi {

using ProgramId = int;

struct RankInfo {
  int node = 0;        // compute node hosting the rank
  int sched_proc = 0;  // process id within that node's scheduler
};

class Comm;

class Runtime {
 public:
  Runtime(hw::Cluster& cluster, sched::PlacementPolicy policy);
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;
  ~Runtime();

  hw::Cluster& cluster() { return *cluster_; }
  sim::Engine& engine() { return cluster_->engine(); }
  sched::PlacementPolicy policy() const { return policy_; }

  /// Launches `nprocs` ranks block-mapped across all nodes (the paper's
  /// servers-on-every-node and clients-across-the-job layouts). Rank r
  /// lands on node r / ceil(nprocs / nodes). Registers each rank with its
  /// node scheduler.
  ProgramId LaunchProgram(std::string name, int nprocs, bool is_server = false);

  /// Launches `nprocs` ranks block-mapped across an explicit node subset
  /// (a cluster-scheduler allocation). Rank r lands on
  /// nodes[r / ceil(nprocs / nodes.size())]. `nodes` must be non-empty and
  /// every entry a valid node index.
  ProgramId LaunchProgramOn(std::string name, int nprocs, const std::vector<int>& nodes,
                            bool is_server = false);

  /// Unregisters every rank of `prog` from its node scheduler (see
  /// sched::NodeScheduler::RemoveProcess), as when its job ends. The
  /// program keeps its id, name and ranks; its ranks stop competing for
  /// cores and their CPU pools are checked and freed. Throws
  /// std::logic_error if the program already retired or a rank's CPU pool
  /// has a transfer in flight or served more than its capacity allows.
  void RetireProgram(ProgramId prog);

  /// Number of ranks of `prog` placed on `node` (subset launches make the
  /// block-map arithmetic unreliable, so callers should count).
  int RanksOnNode(ProgramId prog, int node) const;

  int program_count() const { return static_cast<int>(programs_.size()); }
  int ProgramSize(ProgramId prog) const;
  const std::string& ProgramName(ProgramId prog) const;
  /// True for storage-system server programs (launched with is_server);
  /// attribution reports separate them from application jobs.
  bool IsServer(ProgramId prog) const;
  const RankInfo& Rank(ProgramId prog, int rank) const;
  Comm& comm(ProgramId prog);

  sched::NodeScheduler& Scheduler(int node) {
    return *schedulers_.at(static_cast<std::size_t>(node));
  }

  /// Convenience accessors for a rank's CPU and NUMA DRAM pools. Both
  /// throw std::logic_error once the rank's program has retired.
  sim::FairSharePool& RankCpu(ProgramId prog, int rank);
  sim::FairSharePool& RankDram(ProgramId prog, int rank);
  void SetRankBusy(ProgramId prog, int rank, bool busy);

  /// Interference-aware flush protocol fan-out across all nodes.
  void BeginServerFlushAllNodes();
  void EndServerFlushAllNodes();

 private:
  struct Program {
    std::string name;
    bool is_server = false;
    std::vector<RankInfo> ranks;
    std::unique_ptr<Comm> comm;
  };

  hw::Cluster* cluster_;
  sched::PlacementPolicy policy_;
  std::vector<std::unique_ptr<sched::NodeScheduler>> schedulers_;
  std::vector<Program> programs_;
};

}  // namespace uvs::vmpi

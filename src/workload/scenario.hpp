// One fully-built simulated machine: engine + cluster + runtime + PFS +
// workflow manager. Benches, examples and integration tests construct a
// Scenario per configuration under test.
#pragma once

#include <memory>

#include "src/hw/cluster.hpp"
#include "src/sched/node_scheduler.hpp"
#include "src/sim/engine.hpp"
#include "src/storage/pfs.hpp"
#include "src/vmpi/runtime.hpp"
#include "src/workflow/manager.hpp"

namespace uvs::workload {

namespace internal {
inline hw::ClusterParams UnsetClusterParams() {
  hw::ClusterParams params;
  params.nodes = 0;  // sentinel: Scenario substitutes CoriPreset(procs)
  return params;
}
}  // namespace internal

/// Client ranks the front ends accept (uvsim --procs, the benches'
/// UVS_MAX_PROCS): 8x the paper's largest run.
inline constexpr int kMaxProcs = 65536;

struct ScenarioOptions {
  int procs = 64;
  sched::PlacementPolicy policy = sched::PlacementPolicy::kInterferenceAware;
  bool workflow_enabled = false;
  /// Override the CoriPreset(procs) cluster; leave nodes == 0 to use it.
  hw::ClusterParams cluster_params = internal::UnsetClusterParams();
};

class Scenario {
 public:
  explicit Scenario(const ScenarioOptions& options);

  sim::Engine& engine() { return engine_; }
  hw::Cluster& cluster() { return *cluster_; }
  vmpi::Runtime& runtime() { return *runtime_; }
  storage::Pfs& pfs() { return *pfs_; }
  workflow::WorkflowManager& workflow() { return *workflow_; }
  const ScenarioOptions& options() const { return options_; }

 private:
  ScenarioOptions options_;
  sim::Engine engine_;
  std::unique_ptr<hw::Cluster> cluster_;
  std::unique_ptr<vmpi::Runtime> runtime_;
  std::unique_ptr<storage::Pfs> pfs_;
  std::unique_ptr<workflow::WorkflowManager> workflow_;
};

}  // namespace uvs::workload

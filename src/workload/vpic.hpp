// VPIC-IO kernel (§III-A, §III-C): every rank checkpoints eight particle
// property variables (256 MB total per rank) per time step, with a compute
// interval between checkpoints. Each time step writes its own shared HDF5
// file; the close triggers the (asynchronous) server-side flush.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/h5lite/h5file.hpp"
#include "src/sim/event.hpp"
#include "src/vmpi/file.hpp"
#include "src/workload/scenario.hpp"

namespace uvs::workload {

struct VpicParams {
  int steps = 5;
  int vars = 8;
  Bytes bytes_per_var = 32_MiB;  // 8 x 32 MiB = 256 MiB per rank per step
  Time compute_time = 60_sec;    // sleep between checkpoints (§III-C)
  std::string file_prefix = "vpic";

  /// Per-step file name, shared with the reader side of a workflow.
  std::string StepFileName(int step) const;
};

struct VpicResult {
  /// Sum over steps of the slowest rank's open+write+close.
  Time write_time = 0;
  /// Time from the last close until the last step's flush drained.
  Time final_flush_wait = 0;
  /// The paper's "total I/O time": write_time + final_flush_wait.
  Time total_io_time = 0;
  /// Wall time from start to last rank done (includes compute sleeps).
  Time elapsed = 0;
  Bytes bytes = 0;
};

/// Spawn-style runner so workflows can overlap it with a reader program.
class VpicRun {
 public:
  VpicRun(Scenario& scenario, vmpi::ProgramId program, vmpi::AdioDriver& driver,
          VpicParams params);

  /// Spawns the rank processes and the coordinator; returns immediately.
  void Start();

  sim::Event& done() { return *done_; }
  bool finished() const { return finished_; }
  const VpicResult& result() const { return result_; }
  std::string StepFileName(int step) const { return params_.StepFileName(step); }

 private:
  sim::Task RankLoop(int rank);
  sim::Task Coordinator(std::vector<sim::Process> ranks);

  Scenario* scenario_;
  vmpi::ProgramId program_;
  vmpi::AdioDriver* driver_;
  VpicParams params_;
  std::vector<std::unique_ptr<h5lite::H5File>> files_;
  std::vector<Time> step_start_;
  std::vector<Time> step_end_;
  Time start_time_ = 0;
  VpicResult result_;
  bool finished_ = false;
  std::unique_ptr<sim::Event> done_;
};

/// Convenience: Start + drain the engine.
VpicResult RunVpic(Scenario& scenario, vmpi::ProgramId program, vmpi::AdioDriver& driver,
                   const VpicParams& params);

}  // namespace uvs::workload

// VPIC-style checkpointing across the storage hierarchy.
//
//   $ ./build/examples/vpic_checkpoint [steps]   (1 to 1000)
//
// Runs a multi-time-step VPIC-IO simulation (256 MB per rank per step with
// compute intervals between checkpoints) and reports, per step, how the
// accumulated data spreads across DRAM, the burst buffer, and the PFS —
// the distributed-and-hierarchical placement of §II-B1. With enough steps
// the DRAM tier fills and checkpoints spill to the burst buffer, exactly
// the scenario of the paper's Fig. 8.
#include <cstdio>

#include "src/common/parse.hpp"
#include "src/common/strings.hpp"
#include "src/univistor/driver.hpp"
#include "src/univistor/system.hpp"
#include "src/workload/scenario.hpp"
#include "src/workload/vpic.hpp"

using namespace uvs;

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what);
    ++g_failures;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int steps = argc > 1 ? FlagNumber("vpic_checkpoint", "steps", argv[1], 1, 1000) : 10;
  constexpr int kProcs = 128;

  workload::Scenario scenario(workload::ScenarioOptions{.procs = kProcs});
  univistor::UniviStor univistor(scenario.runtime(), scenario.pfs(), scenario.workflow(),
                                 univistor::Config{});
  univistor::UniviStorDriver driver(univistor);
  const auto app = scenario.runtime().LaunchProgram("vpic", kProcs);

  const workload::VpicParams params{.steps = steps,
                                    .vars = 8,
                                    .bytes_per_var = 32_MiB,
                                    .compute_time = 60.0,
                                    .file_prefix = "checkpoint"};
  std::printf("VPIC checkpointing: %d ranks, %d steps of %s per rank, 60 s compute\n",
              kProcs, steps,
              HumanBytes(static_cast<Bytes>(params.vars) * params.bytes_per_var).c_str());

  workload::VpicRun run(scenario, app, driver, params);
  run.Start();
  scenario.engine().Run();

  std::printf("\n%-28s %12s %12s %12s\n", "checkpoint file", "DRAM", "BB", "PFS spill");
  for (int step = 0; step < steps; ++step) {
    const auto fid = univistor.OpenOrCreate(run.StepFileName(step));
    std::printf("%-28s %12s %12s %12s\n", run.StepFileName(step).c_str(),
                HumanBytes(univistor.CachedOn(fid, hw::Layer::kDram)).c_str(),
                HumanBytes(univistor.CachedOn(fid, hw::Layer::kSharedBurstBuffer)).c_str(),
                HumanBytes(univistor.CachedOn(fid, hw::Layer::kPfs)).c_str());
  }

  const auto& result = run.result();
  const auto& flush = univistor.flush_stats();
  std::printf("\nwrite time (all steps)    : %s\n", HumanTime(result.write_time).c_str());
  std::printf("final flush wait          : %s\n",
              HumanTime(result.final_flush_wait).c_str());
  std::printf("total I/O time            : %s\n", HumanTime(result.total_io_time).c_str());
  std::printf("flushed to Lustre         : %s across %d flushes\n",
              HumanBytes(flush.bytes_flushed).c_str(), flush.flushes);
  std::printf("aggregate checkpoint rate : %s\n",
              HumanRate(static_cast<double>(result.bytes) / result.write_time).c_str());

  const Bytes expected = static_cast<Bytes>(kProcs) * params.vars * params.bytes_per_var *
                         static_cast<Bytes>(steps);
  Check(result.bytes == expected, "every checkpoint byte was written");
  for (int step = 0; step < steps; ++step) {
    const auto fid = univistor.OpenOrCreate(run.StepFileName(step));
    Bytes cached = 0;
    for (int l = 0; l < hw::kLayerCount; ++l)
      cached += univistor.CachedOn(fid, static_cast<hw::Layer>(l));
    Check(cached == univistor.BytesWritten(fid), "bytes conserved for each step file");
  }
  Check(flush.flushes > 0, "close-triggered flushes reached the PFS");
  return g_failures == 0 ? 0 : 1;
}

#include "src/workload/bdcats.hpp"

#include <algorithm>

#include "src/h5lite/h5file.hpp"

namespace uvs::workload {

BdcatsRun::BdcatsRun(Scenario& scenario, vmpi::ProgramId program, vmpi::AdioDriver& driver,
                     BdcatsParams params)
    : scenario_(&scenario),
      program_(program),
      driver_(&driver),
      params_(std::move(params)),
      step_start_(static_cast<std::size_t>(params_.producer.steps), 0.0),
      step_end_(static_cast<std::size_t>(params_.producer.steps), 0.0),
      done_(std::make_unique<sim::Event>(scenario.engine())) {
  for (int step = 0; step < params_.producer.steps; ++step) {
    files_.push_back(std::make_unique<vmpi::File>(
        scenario.runtime(), program,
        vmpi::FileOptions{params_.producer.StepFileName(step), vmpi::FileMode::kReadOnly,
                          /*hdf5=*/true},
        driver));
  }
}

sim::Task BdcatsRun::RankLoop(int rank) {
  auto& engine = scenario_->engine();
  auto& runtime = scenario_->runtime();
  const int readers = runtime.ProgramSize(program_);
  const Bytes dataset_bytes =
      params_.producer.bytes_per_var * static_cast<Bytes>(params_.producer_ranks);
  const Bytes share = dataset_bytes / static_cast<Bytes>(readers);

  for (int step = 0; step < params_.producer.steps; ++step) {
    vmpi::File& file = *files_[static_cast<std::size_t>(step)];
    co_await runtime.comm(program_).Barrier(rank);
    if (rank == 0) step_start_[static_cast<std::size_t>(step)] = engine.Now();
    co_await file.Open(rank);
    for (int var = 0; var < params_.producer.vars; ++var) {
      const Bytes dataset_offset = h5lite::H5File::kHeaderBytes +
                                   static_cast<Bytes>(var) * dataset_bytes;
      const Bytes lo = dataset_offset + static_cast<Bytes>(rank) * share;
      const Bytes len = rank + 1 == readers
                            ? dataset_bytes - static_cast<Bytes>(rank) * share
                            : share;
      co_await file.ReadAt(rank, lo, len);
    }
    co_await file.Close(rank);
    auto& end = step_end_[static_cast<std::size_t>(step)];
    end = std::max(end, engine.Now());
  }
}

sim::Task BdcatsRun::Coordinator(std::vector<sim::Process> ranks) {
  auto& engine = scenario_->engine();
  for (auto& proc : ranks) co_await proc.Done().Wait();
  result_.elapsed = engine.Now() - start_time_;
  for (int step = 0; step < params_.producer.steps; ++step)
    result_.read_time += step_end_[static_cast<std::size_t>(step)] -
                         step_start_[static_cast<std::size_t>(step)];
  result_.bytes = static_cast<Bytes>(params_.producer.steps) *
                  static_cast<Bytes>(params_.producer.vars) *
                  params_.producer.bytes_per_var *
                  static_cast<Bytes>(params_.producer_ranks);
  finished_ = true;
  done_->Trigger();
}

void BdcatsRun::Start() {
  start_time_ = scenario_->engine().Now();
  const int procs = scenario_->runtime().ProgramSize(program_);
  std::vector<sim::Process> ranks;
  ranks.reserve(static_cast<std::size_t>(procs));
  for (int r = 0; r < procs; ++r)
    ranks.push_back(scenario_->engine().Spawn(RankLoop(r)));
  scenario_->engine().Spawn(Coordinator(std::move(ranks)), "bdcats-coordinator");
}

BdcatsResult RunBdcats(Scenario& scenario, vmpi::ProgramId program, vmpi::AdioDriver& driver,
                       const BdcatsParams& params) {
  BdcatsRun run(scenario, program, driver, params);
  run.Start();
  scenario.engine().Run();
  return run.result();
}

}  // namespace uvs::workload

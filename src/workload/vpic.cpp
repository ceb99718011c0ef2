#include "src/workload/vpic.hpp"

#include <algorithm>

namespace uvs::workload {

VpicRun::VpicRun(Scenario& scenario, vmpi::ProgramId program, vmpi::AdioDriver& driver,
                 VpicParams params)
    : scenario_(&scenario),
      program_(program),
      driver_(&driver),
      params_(std::move(params)),
      step_start_(static_cast<std::size_t>(params_.steps), 0.0),
      step_end_(static_cast<std::size_t>(params_.steps), 0.0),
      done_(std::make_unique<sim::Event>(scenario.engine())) {
  for (int step = 0; step < params_.steps; ++step) {
    files_.push_back(std::make_unique<h5lite::H5File>(
        scenario.runtime(), program, StepFileName(step), vmpi::FileMode::kWriteOnly,
        driver, std::vector<h5lite::DatasetSpec>(
                    static_cast<std::size_t>(params_.vars),
                    h5lite::DatasetSpec{"var", 1, params_.bytes_per_var})));
  }
}

std::string VpicParams::StepFileName(int step) const {
  return file_prefix + "_t" + std::to_string(step) + ".h5";
}

sim::Task VpicRun::RankLoop(int rank) {
  auto& engine = scenario_->engine();
  auto& runtime = scenario_->runtime();
  for (int step = 0; step < params_.steps; ++step) {
    h5lite::H5File& h5 = *files_[static_cast<std::size_t>(step)];
    co_await runtime.comm(program_).Barrier(rank);
    if (rank == 0) step_start_[static_cast<std::size_t>(step)] = engine.Now();
    co_await h5.Open(rank);
    for (int var = 0; var < params_.vars; ++var) co_await h5.WriteSlice(rank, var);
    co_await h5.Close(rank);
    auto& end = step_end_[static_cast<std::size_t>(step)];
    end = std::max(end, engine.Now());
    if (step + 1 < params_.steps && params_.compute_time > 0) {
      runtime.SetRankBusy(program_, rank, false);
      co_await engine.Delay(params_.compute_time);
      runtime.SetRankBusy(program_, rank, true);
    }
  }
}

sim::Task VpicRun::Coordinator(std::vector<sim::Process> ranks) {
  auto& engine = scenario_->engine();
  for (auto& proc : ranks) co_await proc.Done().Wait();
  result_.elapsed = engine.Now() - start_time_;
  for (int step = 0; step < params_.steps; ++step)
    result_.write_time += step_end_[static_cast<std::size_t>(step)] -
                          step_start_[static_cast<std::size_t>(step)];
  const Time flush_start = engine.Now();
  co_await files_.back()->WaitFlush();
  result_.final_flush_wait = engine.Now() - flush_start;
  result_.total_io_time = result_.write_time + result_.final_flush_wait;
  result_.bytes = static_cast<Bytes>(params_.steps) * static_cast<Bytes>(params_.vars) *
                  params_.bytes_per_var *
                  static_cast<Bytes>(scenario_->runtime().ProgramSize(program_));
  finished_ = true;
  done_->Trigger();
}

void VpicRun::Start() {
  start_time_ = scenario_->engine().Now();
  const int procs = scenario_->runtime().ProgramSize(program_);
  std::vector<sim::Process> ranks;
  ranks.reserve(static_cast<std::size_t>(procs));
  for (int r = 0; r < procs; ++r)
    ranks.push_back(scenario_->engine().Spawn(RankLoop(r)));
  scenario_->engine().Spawn(Coordinator(std::move(ranks)), "vpic-coordinator");
}

VpicResult RunVpic(Scenario& scenario, vmpi::ProgramId program, vmpi::AdioDriver& driver,
                   const VpicParams& params) {
  VpicRun run(scenario, program, driver, params);
  run.Start();
  scenario.engine().Run();
  return run.result();
}

}  // namespace uvs::workload

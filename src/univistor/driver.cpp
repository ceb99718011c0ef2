#include "src/univistor/driver.hpp"

#include "src/obs/recorder.hpp"

namespace uvs::univistor {

namespace {
/// Rank-track handle for causal/category annotation of driver waits.
obs::Track RankTrack(vmpi::File& file, int rank) {
  return obs::Track::Rank(file.runtime().Rank(file.program(), rank).node, file.program(),
                          rank);
}
}  // namespace

UniviStorDriver::State& UniviStorDriver::StateOf(vmpi::File& file) {
  if (auto* state = file.driver_state<State>()) return *state;
  auto& state = file.EmplaceDriverState<State>();
  state.fid = system_->OpenOrCreate(file.options().name);
  return state;
}

sim::Task UniviStorDriver::Open(vmpi::File& file, int rank, obs::SpanRef op) {
  State& state = StateOf(file);
  const bool writer = file.options().mode == vmpi::FileMode::kWriteOnly;
  sim::Engine& engine = file.runtime().engine();
  const obs::Track track = RankTrack(file, rank);

  if (system_->config().collective_open_close) {
    if (rank == 0) {
      // Lock acquire piggybacks on the collective open (§II-E), then the
      // root performs the metadata operations for everyone.
      {
        obs::SpanTimer lock(engine, "univistor", "wf.lock", track, obs::kNoBytes,
                            {.cat = obs::Category::kQueue, .parent = op});
        if (writer) co_await system_->workflow().AcquireWrite(state.fid);
        else co_await system_->workflow().AcquireRead(state.fid);
      }
      co_await system_->OpenMetadata(file.program(), rank, state.fid, op);
    }
    {
      obs::SpanTimer wait(engine, "univistor", "bcast", track, obs::kNoBytes,
                          {.cat = obs::Category::kQueue, .parent = op});
      co_await file.comm().Bcast(rank);
    }
  } else {
    if (rank == 0) {
      obs::SpanTimer lock(engine, "univistor", "wf.lock", track, obs::kNoBytes,
                          {.cat = obs::Category::kQueue, .parent = op});
      if (writer) co_await system_->workflow().AcquireWrite(state.fid);
      else co_await system_->workflow().AcquireRead(state.fid);
    }
    // Every rank sends its own metadata requests to the same server — the
    // all-to-one pattern the COC optimization removes.
    co_await system_->OpenMetadata(file.program(), rank, state.fid, op);
  }
}

sim::Task UniviStorDriver::WriteAt(vmpi::File& file, int rank, Bytes offset, Bytes len,
                                   obs::SpanRef op) {
  State& state = StateOf(file);
  return system_->Write(file.program(), rank, state.fid, offset, len, op);
}

sim::Task UniviStorDriver::ReadAt(vmpi::File& file, int rank, Bytes offset, Bytes len,
                                  obs::SpanRef op) {
  State& state = StateOf(file);
  return system_->Read(file.program(), rank, state.fid, offset, len, op);
}

sim::Task UniviStorDriver::WaitFlush(vmpi::File& file) {
  return system_->WaitFlush(StateOf(file).fid);
}

sim::Task UniviStorDriver::Close(vmpi::File& file, int rank, obs::SpanRef op) {
  State& state = StateOf(file);
  const bool writer = file.options().mode == vmpi::FileMode::kWriteOnly;
  sim::Engine& engine = file.runtime().engine();
  const obs::Track track = RankTrack(file, rank);
  ++state.closes;

  // Links the close op to the flush it kicked off, so the critical-path
  // walk can descend from a slow close into the flush machinery.
  auto trigger_flush = [&] {
    system_->TriggerFlush(state.fid);
    if (obs::Recorder* r = obs::Recorder::Current())
      r->AddLink(op, system_->FlushSpan(state.fid));
  };

  if (system_->config().collective_open_close) {
    if (rank == 0) co_await system_->CloseMetadata(file.program(), rank, state.fid, op);
    {
      obs::SpanTimer wait(engine, "univistor", "bcast", track, obs::kNoBytes,
                          {.cat = obs::Category::kQueue, .parent = op});
      co_await file.comm().Bcast(rank);
    }
    if (rank == 0) {
      if (writer) {
        co_await system_->workflow().ReleaseWrite(state.fid);
        if (system_->config().flush_on_close) trigger_flush();
      } else {
        co_await system_->workflow().ReleaseRead(state.fid);
      }
    }
  } else {
    co_await system_->CloseMetadata(file.program(), rank, state.fid, op);
    if (state.closes == file.comm().size()) {
      // Last rank out releases the lock and triggers the flush.
      if (writer) {
        co_await system_->workflow().ReleaseWrite(state.fid);
        if (system_->config().flush_on_close) trigger_flush();
      } else {
        co_await system_->workflow().ReleaseRead(state.fid);
      }
    }
  }
}

}  // namespace uvs::univistor

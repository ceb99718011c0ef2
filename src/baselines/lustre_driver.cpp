#include "src/baselines/lustre_driver.hpp"

#include "src/obs/legs.hpp"
#include "src/obs/recorder.hpp"

namespace uvs::baselines {

namespace {
/// HDF5 metadata requests per open; every rank pays them (no collective
/// optimization in the baseline).
constexpr int kMdOpsPerOpen = 4;

obs::Track RankTrack(vmpi::Runtime& runtime, vmpi::File& file, int rank) {
  return obs::Track::Rank(runtime.Rank(file.program(), rank).node, file.program(), rank);
}
}  // namespace

LustreDriver::LustreDriver(vmpi::Runtime& runtime, storage::Pfs& pfs)
    : runtime_(&runtime), pfs_(&pfs), mds_(std::make_unique<sim::Mutex>(runtime.engine())) {}

LustreDriver::State& LustreDriver::StateOf(vmpi::File& file) {
  if (auto* state = file.driver_state<State>()) return *state;
  auto& state = file.EmplaceDriverState<State>();
  auto existing = pfs_->Lookup(file.options().name);
  // Large shared files are striped across every OST (the "simple and
  // widely used approach" of §II-D), as Data Elevator's flush does.
  state.handle = existing.ok() ? *existing
                               : pfs_->Create(file.options().name,
                                              {.stripe_size = 1_MiB,
                                               .stripe_count = pfs_->ost_count()});
  return state;
}

sim::Task LustreDriver::MdsOp(int node, int ops, obs::Track rank_track, obs::SpanRef parent) {
  const auto& params = runtime_->cluster().params();
  sim::Engine& engine = runtime_->cluster().engine();
  const Time start = engine.Now();
  co_await engine.Delay(params.pfs.latency);
  (void)node;
  const Time queued = engine.Now();
  auto guard = co_await mds_->Lock();
  const Time serviced = engine.Now();
  co_await engine.Delay(static_cast<double>(ops) * params.rpc_service_time);
  if (obs::Recorder* r = obs::Recorder::Current()) {
    r->AddSpanTagged("baselines", "mds.latency", rank_track, start, queued, obs::kNoBytes,
                     {.cat = obs::Category::kNet, .parent = parent});
    if (serviced > queued) {
      r->AddSpanTagged("baselines", "mds.queue", rank_track, queued, serviced, obs::kNoBytes,
                       {.cat = obs::Category::kQueue, .parent = parent});
    }
    r->AddSpanTagged("baselines", "mds.service", rank_track, serviced, engine.Now(),
                     obs::kNoBytes, {.cat = obs::Category::kMeta, .parent = parent});
  }
}

sim::Task LustreDriver::Open(vmpi::File& file, int rank, obs::SpanRef op) {
  StateOf(file);
  const int node = runtime_->Rank(file.program(), rank).node;
  co_await MdsOp(node, kMdOpsPerOpen, RankTrack(*runtime_, file, rank), op);
}

sim::Task LustreDriver::WriteAt(vmpi::File& file, int rank, Bytes offset, Bytes len,
                                obs::SpanRef op) {
  State& state = StateOf(file);
  const int node = runtime_->Rank(file.program(), rank).node;
  obs::Legs legs(runtime_->engine(), "baselines", RankTrack(*runtime_, file, rank), op);
  legs.Pool("cpu.copy", obs::Category::kNet, runtime_->RankCpu(file.program(), rank), len);
  legs.Add("pfs.write.wait", obs::Category::kPfs, 0.0, len,
           pfs_->Write(state.handle, offset, len, node,
                       {.layout = storage::AccessLayout::kSharedInterleaved, .parent = op}));
  co_await legs.Join();
}

sim::Task LustreDriver::ReadAt(vmpi::File& file, int rank, Bytes offset, Bytes len,
                               obs::SpanRef op) {
  State& state = StateOf(file);
  const int node = runtime_->Rank(file.program(), rank).node;
  obs::Legs legs(runtime_->engine(), "baselines", RankTrack(*runtime_, file, rank), op);
  legs.Pool("cpu.copy", obs::Category::kNet, runtime_->RankCpu(file.program(), rank), len);
  legs.Add("pfs.read.wait", obs::Category::kPfs, 0.0, len,
           pfs_->Read(state.handle, offset, len, node,
                      {.layout = storage::AccessLayout::kSharedInterleaved, .parent = op}));
  co_await legs.Join();
}

sim::Task LustreDriver::Close(vmpi::File& file, int rank, obs::SpanRef op) {
  const int node = runtime_->Rank(file.program(), rank).node;
  co_await MdsOp(node, 1, RankTrack(*runtime_, file, rank), op);
}

}  // namespace uvs::baselines

// Lustre baseline: applications write one shared (HDF5) file straight to
// the disk-based PFS, with no caching layer (§III-A "Comparisons").
#pragma once

#include <map>
#include <memory>
#include <string>

#include "src/sim/sync.hpp"
#include "src/storage/pfs.hpp"
#include "src/vmpi/file.hpp"
#include "src/vmpi/runtime.hpp"

namespace uvs::baselines {

class LustreDriver : public vmpi::AdioDriver {
 public:
  LustreDriver(vmpi::Runtime& runtime, storage::Pfs& pfs);

  const char* fs_type() const override { return "lustre"; }

  sim::Task Open(vmpi::File& file, int rank, obs::SpanRef op) override;
  sim::Task WriteAt(vmpi::File& file, int rank, Bytes offset, Bytes len,
                    obs::SpanRef op) override;
  sim::Task ReadAt(vmpi::File& file, int rank, Bytes offset, Bytes len,
                   obs::SpanRef op) override;
  sim::Task Close(vmpi::File& file, int rank, obs::SpanRef op) override;

 private:
  struct State {
    storage::Pfs::FileHandle handle = -1;
  };
  State& StateOf(vmpi::File& file);
  /// Serialized metadata-server service (Lustre MDS); emits the rank-side
  /// wait/service decomposition on `rank_track`.
  sim::Task MdsOp(int node, int ops, obs::Track rank_track, obs::SpanRef parent);

  vmpi::Runtime* runtime_;
  storage::Pfs* pfs_;
  std::unique_ptr<sim::Mutex> mds_;
};

}  // namespace uvs::baselines

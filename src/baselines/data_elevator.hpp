// Data Elevator baseline [14]: transparently caches the shared HDF5 file
// on the DataWarp burst buffer and asynchronously flushes it to Lustre at
// close time. Unlike UniviStor it keeps the *shared-file* layout on the BB
// (so concurrent writers pay extent-lock contention), has no DRAM tier, no
// adaptive striping, and no interference-aware scheduling.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/sync.hpp"
#include "src/storage/layer_store.hpp"
#include "src/storage/pfs.hpp"
#include "src/vmpi/file.hpp"
#include "src/vmpi/runtime.hpp"

namespace uvs::baselines {

class DataElevator {
 public:
  struct FlushStats {
    int flushes = 0;
    Bytes bytes_flushed = 0;
    Time last_flush_duration = 0;
  };

  DataElevator(vmpi::Runtime& runtime, storage::Pfs& pfs);

  vmpi::Runtime& runtime() { return *runtime_; }
  storage::Pfs& pfs() { return *pfs_; }
  const FlushStats& flush_stats() const { return flush_stats_; }
  /// The server program launched on every node; its job retires it.
  vmpi::ProgramId server_program() const { return server_program_; }

  storage::FileId OpenOrCreate(const std::string& name);

  sim::Task OpenMetadata(vmpi::ProgramId program, int rank, obs::SpanRef parent = {});
  sim::Task Write(vmpi::ProgramId program, int rank, storage::FileId fid, Bytes offset,
                  Bytes len, obs::SpanRef parent = {});
  sim::Task Read(vmpi::ProgramId program, int rank, storage::FileId fid, Bytes offset,
                 Bytes len, obs::SpanRef parent = {});
  void TriggerFlush(storage::FileId fid);
  sim::Task WaitFlush(storage::FileId fid);
  sim::Task WaitAllFlushes();

 private:
  struct FileInfo {
    std::string name;
    Bytes cached_bytes = 0;  // resident on the BB
    int active_writers = 0;
    int active_readers = 0;
    storage::Pfs::FileHandle pfs_file = -1;
    sim::Process flush_process;
    bool flush_in_flight = false;
  };

  FileInfo& Info(storage::FileId fid);
  double BbInflation(const FileInfo& info, bool read) const;
  sim::Task BbAccess(vmpi::ProgramId program, int rank, FileInfo& info, Bytes offset,
                     Bytes len, bool read, obs::SpanRef parent);
  sim::Task FlushTask(storage::FileId fid);
  sim::Task ServerFlushShare(FileInfo& info, int server_idx, Bytes range_offset, Bytes bytes);

  vmpi::Runtime* runtime_;
  storage::Pfs* pfs_;
  vmpi::ProgramId server_program_ = -1;
  int total_servers_ = 0;
  std::unique_ptr<sim::Mutex> mds_;
  std::map<std::string, storage::FileId> names_;
  std::vector<std::unique_ptr<FileInfo>> files_;
  FlushStats flush_stats_;
};

/// ADIO driver face of Data Elevator.
class DataElevatorDriver : public vmpi::AdioDriver {
 public:
  explicit DataElevatorDriver(DataElevator& system) : system_(&system) {}

  const char* fs_type() const override { return "data-elevator"; }

  sim::Task Open(vmpi::File& file, int rank, obs::SpanRef op) override;
  sim::Task WriteAt(vmpi::File& file, int rank, Bytes offset, Bytes len,
                    obs::SpanRef op) override;
  sim::Task ReadAt(vmpi::File& file, int rank, Bytes offset, Bytes len,
                   obs::SpanRef op) override;
  sim::Task Close(vmpi::File& file, int rank, obs::SpanRef op) override;
  sim::Task WaitFlush(vmpi::File& file) override;

 private:
  struct State {
    storage::FileId fid = 0;
    int closes = 0;
  };
  State& StateOf(vmpi::File& file);

  DataElevator* system_;
};

}  // namespace uvs::baselines

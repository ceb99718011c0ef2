// Space accounting and log management for one storage layer scope.
//
// A LayerStore represents the cacheable space of one layer visible to one
// UniviStor server group: each compute node has a DRAM (and optionally a
// node-local SSD) LayerStore; the shared burst buffer has a single global
// LayerStore. Logs are created per (logical file, producer process) with a
// fixed per-log capacity (the paper's pre-sized memory-mapped files), but
// physical chunks are granted lazily from the store-wide budget as data is
// appended — like mmap, reserving address space costs nothing until pages
// are touched.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "src/common/status.hpp"
#include "src/common/units.hpp"
#include "src/hw/params.hpp"
#include "src/storage/log_file.hpp"

namespace uvs::storage {

using FileId = std::uint64_t;

/// Identifies a log inside a LayerStore: one per (logical file, producer).
struct LogKey {
  FileId file = 0;
  std::int64_t producer = 0;  // global producer id (program, rank)

  auto operator<=>(const LogKey&) const = default;
};

class LayerStore : public ChunkBudget {
 public:
  LayerStore(hw::Layer layer, Bytes capacity, Bytes chunk_size);

  hw::Layer layer() const { return layer_; }
  Bytes capacity() const { return chunk_size_ * total_chunks_; }
  /// Bytes of physical chunks currently handed to logs.
  Bytes used() const { return chunk_size_ * consumed_chunks_; }
  Bytes available() const { return capacity() - used(); }
  Bytes chunk_size() const { return chunk_size_; }

  /// Opens (or returns the existing) log for `key` with the given virtual
  /// capacity; appends draw physical chunks from this store on demand.
  LogFile* OpenLog(const LogKey& key, Bytes capacity);

  LogFile* FindLog(const LogKey& key);
  const LogFile* FindLog(const LogKey& key) const;

  /// Drops the log and returns its consumed chunks to the store.
  Status DeleteLog(const LogKey& key);

  // ChunkBudget:
  bool TryConsume() override;
  void Release() override;

 private:
  hw::Layer layer_;
  Bytes chunk_size_;
  Bytes total_chunks_ = 0;
  Bytes consumed_chunks_ = 0;
  std::map<LogKey, std::unique_ptr<LogFile>> logs_;
};

}  // namespace uvs::storage

// Offset-ordered index of metadata records for overlap queries. Used by
// each metadata partition and by the per-node shared metadata buffer that
// powers location-aware reads (§II-B4).
#pragma once

#include <cstdint>
#include <vector>

#include "src/meta/record.hpp"

namespace uvs::meta {

class RecordIndex {
 public:
  std::size_t size() const { return size_; }

  /// Records must not partially overlap existing ones; re-inserting the
  /// exact same (fid, offset) replaces it (overwrite-in-place).
  void Insert(const MetadataRecord& record);

  /// Records overlapping [offset, offset+len) of `fid`, clipped to the
  /// query range (offset, len and va adjusted), in offset order.
  std::vector<MetadataRecord> Query(storage::FileId fid, Bytes offset, Bytes len) const;

  /// Total bytes of `fid` covered by records in [offset, offset+len).
  Bytes CoveredBytes(storage::FileId fid, Bytes offset, Bytes len) const;

  /// Every record in (fid, offset) order — drained during repartitioning.
  std::vector<MetadataRecord> All() const;

  void Clear();

 private:
  // One file's records, sorted by offset with unique offsets. A producer
  // writes offset-monotone segments, so most inserts append.
  struct File {
    storage::FileId fid;
    std::vector<MetadataRecord> records;
  };
  std::vector<File> files_;  // sorted by fid
  std::size_t size_ = 0;
};

}  // namespace uvs::meta

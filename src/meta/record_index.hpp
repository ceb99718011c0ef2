// Offset-ordered index of metadata records for overlap queries. Used by
// each metadata partition and by the per-node shared metadata buffer that
// powers location-aware reads (§II-B4).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/meta/record.hpp"

namespace uvs::meta {

class RecordIndex {
 public:
  /// One stored record, without the file id that the file holding it names.
  struct Entry {
    Bytes offset = 0;
    Bytes len = 0;
    std::int64_t producer = 0;
    Bytes va = 0;

    Bytes end() const { return offset + len; }
  };

  std::size_t size() const { return size_; }

  /// Records must not partially overlap existing ones; re-inserting the
  /// exact same (fid, offset) replaces it (overwrite-in-place).
  void Insert(const MetadataRecord& record);

  /// Records overlapping [offset, offset+len) of `fid`, clipped to the
  /// query range (offset, len and va adjusted), in offset order. The
  /// answer is allocated once, at its final size.
  std::vector<MetadataRecord> Query(storage::FileId fid, Bytes offset, Bytes len) const;

  /// The stored entries of `fid` overlapping [offset, offset+len),
  /// unclipped, in offset order; empty when len is 0. Valid until the
  /// next Insert or Clear.
  std::span<const Entry> Overlapping(storage::FileId fid, Bytes offset, Bytes len) const;

  /// `entry` of `fid` clipped to [lo, hi), which it must overlap.
  static MetadataRecord Clip(storage::FileId fid, const Entry& entry, Bytes lo, Bytes hi);

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
    std::vector<Entry> entries;
  };
  std::vector<File> files_;  // sorted by fid
  std::size_t size_ = 0;
};

}  // namespace uvs::meta

// Distributed metadata service (§II-B3, Fig. 3).
//
// Records are partitioned by logical offset: the offset space is cut into
// fixed-size ranges assigned round-robin to the UniviStor servers; a record
// spanning a range boundary is split so each partition fully owns its
// entries. This object holds the *state*; the network/RPC cost of reaching
// a partition is charged by the server runtime that routes the request.
#pragma once

#include <vector>

#include "src/kv/range_partitioner.hpp"
#include "src/meta/record_index.hpp"

namespace uvs::meta {

class DistributedMetadataService {
 public:
  DistributedMetadataService(int servers, Bytes range_size);

  const kv::RangePartitioner& partitioner() const { return partitioner_; }
  int server_count() const { return partitioner_.servers(); }

  /// Server that owns the range containing `offset`.
  int ServerOf(Bytes offset) const { return partitioner_.ServerOf(offset); }

  /// Inserts `record`, splitting it at range boundaries. Returns the
  /// distinct servers touched, in first-touch order (for RPC cost
  /// accounting by the caller), in a vector reserved for all of them.
  std::vector<int> Insert(const MetadataRecord& record);

  /// All records overlapping [offset, offset+len), clipped, offset-sorted,
  /// gathered from the partitions into one allocation of the answer's size.
  std::vector<MetadataRecord> Query(storage::FileId fid, Bytes offset, Bytes len) const;

  /// Query restricted to one partition (a client contacting one server).
  std::vector<MetadataRecord> QueryPartition(int server, storage::FileId fid, Bytes offset,
                                             Bytes len) const;

  std::size_t RecordCount(int server) const {
    return partitions_.at(static_cast<std::size_t>(server)).size();
  }
  std::size_t TotalRecords() const;

  /// Failure recovery: retires `server` in the partitioner and re-homes
  /// its records onto the surviving owners. Returns the number of records
  /// moved; 0 (and no state change) if it was the last live server or
  /// already retired.
  std::size_t RetireServer(int server);
  bool ServerAlive(int server) const { return partitioner_.alive(server); }

 private:
  kv::RangePartitioner partitioner_;
  std::vector<RecordIndex> partitions_;
};

}  // namespace uvs::meta

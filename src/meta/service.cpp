#include "src/meta/service.hpp"

#include <algorithm>
#include <cstdint>
#include <span>

#include "src/obs/recorder.hpp"

namespace uvs::meta {

DistributedMetadataService::DistributedMetadataService(int servers, Bytes range_size)
    : partitioner_(servers, range_size),
      partitions_(static_cast<std::size_t>(servers)) {}

std::vector<int> DistributedMetadataService::Insert(const MetadataRecord& record) {
  const Bytes range_size = partitioner_.range_size();
  const std::uint64_t ranges =
      record.len > 0 ? (record.end() - 1) / range_size - record.offset / range_size + 1 : 0;
  std::vector<int> touched;
  touched.reserve(std::min<std::uint64_t>(ranges, static_cast<std::uint64_t>(server_count())));
  Bytes offset = record.offset;
  Bytes remaining = record.len;
  Bytes va = record.va;
  std::uint64_t pieces = 0;
  while (remaining > 0) {
    const Bytes range_end = (offset / range_size + 1) * range_size;
    const Bytes piece = std::min(remaining, range_end - offset);
    const int server = partitioner_.ServerOf(offset);
    partitions_[static_cast<std::size_t>(server)].Insert(
        MetadataRecord{record.fid, offset, piece, record.producer, va});
    if (std::find(touched.begin(), touched.end(), server) == touched.end())
      touched.push_back(server);
    offset += piece;
    va += piece;
    remaining -= piece;
    ++pieces;
  }
  obs::Count("meta.insert.calls");
  obs::Count("meta.insert.records", pieces);
  if (pieces > 1) obs::Count("meta.insert.range_splits", pieces - 1);
  return touched;
}

std::vector<MetadataRecord> DistributedMetadataService::Query(storage::FileId fid, Bytes offset,
                                                              Bytes len) const {
  std::vector<std::span<const RecordIndex::Entry>> runs;
  std::size_t total = 0;
  for (int server : partitioner_.ServersFor(offset, len)) {
    runs.push_back(partitions_[static_cast<std::size_t>(server)].Overlapping(fid, offset, len));
    total += runs.back().size();
  }
  std::vector<MetadataRecord> out;
  out.reserve(total);
  for (const auto& run : runs)
    for (const RecordIndex::Entry& entry : run)
      out.push_back(RecordIndex::Clip(fid, entry, offset, offset + len));
  std::sort(out.begin(), out.end(),
            [](const MetadataRecord& a, const MetadataRecord& b) { return a.offset < b.offset; });
  obs::Count("meta.query.calls");
  obs::Count("meta.query.records", out.size());
  return out;
}

std::vector<MetadataRecord> DistributedMetadataService::QueryPartition(
    int server, storage::FileId fid, Bytes offset, Bytes len) const {
  return partitions_.at(static_cast<std::size_t>(server)).Query(fid, offset, len);
}

std::size_t DistributedMetadataService::RetireServer(int server) {
  if (!partitioner_.alive(server)) return 0;
  if (!partitioner_.Retire(server)) return 0;
  RecordIndex& dead = partitions_.at(static_cast<std::size_t>(server));
  const std::vector<MetadataRecord> orphans = dead.All();
  dead.Clear();
  for (const MetadataRecord& rec : orphans) {
    // Records were already split at range boundaries on insert, so each
    // one lands whole on its new owner.
    const int heir = partitioner_.ServerOf(rec.offset);
    partitions_[static_cast<std::size_t>(heir)].Insert(rec);
  }
  obs::Count("meta.retire.servers");
  obs::Count("meta.retire.records_moved", orphans.size());
  return orphans.size();
}

std::size_t DistributedMetadataService::TotalRecords() const {
  std::size_t n = 0;
  for (const auto& part : partitions_) n += part.size();
  return n;
}

}  // namespace uvs::meta

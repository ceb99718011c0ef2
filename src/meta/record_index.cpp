#include "src/meta/record_index.hpp"

#include <algorithm>

namespace uvs::meta {

namespace {

bool OffsetBefore(const MetadataRecord& rec, Bytes offset) { return rec.offset < offset; }

// First file in the fid-sorted `files` whose fid is not below `fid`.
template <typename Files>
auto LowerFile(Files& files, storage::FileId fid) {
  return std::lower_bound(files.begin(), files.end(), fid,
                          [](const auto& file, storage::FileId id) { return file.fid < id; });
}

}  // namespace

void RecordIndex::Insert(const MetadataRecord& record) {
  auto file = LowerFile(files_, record.fid);
  if (file == files_.end() || file->fid != record.fid)
    file = files_.insert(file, File{record.fid, {}});
  std::vector<MetadataRecord>& recs = file->records;
  auto it = recs.empty() || recs.back().offset < record.offset
                ? recs.end()
                : std::lower_bound(recs.begin(), recs.end(), record.offset, OffsetBefore);
  if (it != recs.end() && it->offset == record.offset) {
    *it = record;
    return;
  }
  recs.insert(it, record);
  ++size_;
}

std::vector<MetadataRecord> RecordIndex::Query(storage::FileId fid, Bytes offset,
                                               Bytes len) const {
  std::vector<MetadataRecord> out;
  const auto file = LowerFile(files_, fid);
  if (len == 0 || file == files_.end() || file->fid != fid) return out;
  const std::vector<MetadataRecord>& recs = file->records;
  const Bytes end = offset + len;

  auto it = std::lower_bound(recs.begin(), recs.end(), offset, OffsetBefore);
  // The record starting closest before `offset` can still overlap it.
  if (it != recs.begin() && (it == recs.end() || it->offset != offset)) {
    const MetadataRecord& rec = *std::prev(it);
    if (rec.end() > offset) {
      MetadataRecord clipped = rec;
      const Bytes skip = offset - rec.offset;
      clipped.offset = offset;
      clipped.va += skip;
      clipped.len = std::min(rec.len - skip, len);
      out.push_back(clipped);
    }
  }
  for (; it != recs.end() && it->offset < end; ++it) {
    MetadataRecord clipped = *it;
    if (clipped.end() > end) clipped.len = end - clipped.offset;
    out.push_back(clipped);
  }
  return out;
}

Bytes RecordIndex::CoveredBytes(storage::FileId fid, Bytes offset, Bytes len) const {
  Bytes covered = 0;
  for (const auto& rec : Query(fid, offset, len)) covered += rec.len;
  return covered;
}

std::vector<MetadataRecord> RecordIndex::All() const {
  std::vector<MetadataRecord> out;
  out.reserve(size_);
  for (const File& file : files_) out.insert(out.end(), file.records.begin(), file.records.end());
  return out;
}

void RecordIndex::Clear() {
  files_.clear();
  size_ = 0;
}

}  // namespace uvs::meta

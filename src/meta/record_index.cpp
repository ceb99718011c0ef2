#include "src/meta/record_index.hpp"

#include <algorithm>

namespace uvs::meta {

namespace {

static_assert(sizeof(RecordIndex::Entry) == 32, "an index entry is four 8-byte fields");

bool OffsetBefore(const RecordIndex::Entry& entry, Bytes offset) { return entry.offset < offset; }

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
  std::vector<Entry>& entries = file->entries;
  const Entry entry{record.offset, record.len, record.producer, record.va};
  auto it = entries.empty() || entries.back().offset < record.offset
                ? entries.end()
                : std::lower_bound(entries.begin(), entries.end(), record.offset, OffsetBefore);
  if (it != entries.end() && it->offset == record.offset) {
    *it = entry;
    return;
  }
  entries.insert(it, entry);
  ++size_;
}

std::span<const RecordIndex::Entry> RecordIndex::Overlapping(storage::FileId fid, Bytes offset,
                                                             Bytes len) const {
  const auto file = LowerFile(files_, fid);
  if (len == 0 || file == files_.end() || file->fid != fid) return {};
  const std::vector<Entry>& entries = file->entries;
  auto first = std::lower_bound(entries.begin(), entries.end(), offset, OffsetBefore);
  const auto last = std::lower_bound(first, entries.end(), offset + len, OffsetBefore);
  // The entry starting closest before `offset` can still overlap it.
  if (first != entries.begin() && (first == entries.end() || first->offset != offset) &&
      std::prev(first)->end() > offset)
    --first;
  return {first, last};
}

MetadataRecord RecordIndex::Clip(storage::FileId fid, const Entry& entry, Bytes lo, Bytes hi) {
  const Bytes offset = std::max(entry.offset, lo);
  return MetadataRecord{fid, offset, std::min(entry.end(), hi) - offset, entry.producer,
                        entry.va + (offset - entry.offset)};
}

std::vector<MetadataRecord> RecordIndex::Query(storage::FileId fid, Bytes offset,
                                               Bytes len) const {
  const std::span<const Entry> hits = Overlapping(fid, offset, len);
  std::vector<MetadataRecord> out;
  out.reserve(hits.size());
  for (const Entry& entry : hits) out.push_back(Clip(fid, entry, offset, offset + len));
  return out;
}

Bytes RecordIndex::CoveredBytes(storage::FileId fid, Bytes offset, Bytes len) const {
  Bytes covered = 0;
  for (const Entry& entry : Overlapping(fid, offset, len))
    covered += Clip(fid, entry, offset, offset + len).len;
  return covered;
}

std::vector<MetadataRecord> RecordIndex::All() const {
  std::vector<MetadataRecord> out;
  out.reserve(size_);
  for (const File& file : files_)
    for (const Entry& entry : file.entries)
      out.push_back(MetadataRecord{file.fid, entry.offset, entry.len, entry.producer, entry.va});
  return out;
}

void RecordIndex::Clear() {
  files_.clear();
  size_ = 0;
}

}  // namespace uvs::meta

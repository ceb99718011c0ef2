// Tests for the distributed metadata service (§II-B3).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/meta/record_index.hpp"
#include "src/meta/service.hpp"

namespace uvs::meta {
namespace {

TEST(RecordIndex, ExactQueryReturnsRecord) {
  RecordIndex index;
  index.Insert({1, 100, 50, 7, 1000});
  auto hits = index.Query(1, 100, 50);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], (MetadataRecord{1, 100, 50, 7, 1000}));
}

TEST(RecordIndex, QueryClipsHead) {
  RecordIndex index;
  index.Insert({1, 100, 50, 7, 1000});
  auto hits = index.Query(1, 120, 100);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].offset, 120u);
  EXPECT_EQ(hits[0].len, 30u);
  EXPECT_EQ(hits[0].va, 1020u) << "VA advances with the clip";
}

TEST(RecordIndex, QueryClipsTail) {
  RecordIndex index;
  index.Insert({1, 100, 50, 7, 1000});
  auto hits = index.Query(1, 80, 40);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].offset, 100u);
  EXPECT_EQ(hits[0].len, 20u);
  EXPECT_EQ(hits[0].va, 1000u);
}

TEST(RecordIndex, QueryIgnoresOtherFiles) {
  RecordIndex index;
  index.Insert({1, 100, 50, 7, 1000});
  EXPECT_TRUE(index.Query(2, 100, 50).empty());
}

TEST(RecordIndex, MultipleRecordsReturnedInOffsetOrder) {
  RecordIndex index;
  index.Insert({1, 200, 100, 2, 0});
  index.Insert({1, 0, 100, 1, 0});
  index.Insert({1, 100, 100, 3, 0});
  auto hits = index.Query(1, 0, 300);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].producer, 1);
  EXPECT_EQ(hits[1].producer, 3);
  EXPECT_EQ(hits[2].producer, 2);
}

TEST(RecordIndex, CoveredBytesReportsHoles) {
  RecordIndex index;
  index.Insert({1, 0, 100, 1, 0});
  index.Insert({1, 200, 100, 1, 0});
  EXPECT_EQ(index.CoveredBytes(1, 0, 300), 200u);
  EXPECT_EQ(index.CoveredBytes(1, 100, 100), 0u);
}

TEST(RecordIndex, ReinsertSameOffsetReplaces) {
  RecordIndex index;
  index.Insert({1, 0, 100, 1, 0});
  index.Insert({1, 0, 100, 2, 555});
  auto hits = index.Query(1, 0, 100);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].producer, 2);
}

TEST(MetadataService, InsertSplitsAtRangeBoundaries) {
  DistributedMetadataService service(2, 100);
  // Record [50, 250) spans ranges 0,1,2 owned by servers 0,1,0.
  auto touched = service.Insert({1, 50, 200, 9, 5000});
  EXPECT_EQ(touched, (std::vector<int>{0, 1}));
  EXPECT_EQ(service.RecordCount(0), 2u);
  EXPECT_EQ(service.RecordCount(1), 1u);
  EXPECT_EQ(service.TotalRecords(), 3u);
}

TEST(MetadataService, QueryReassemblesSplitRecord) {
  DistributedMetadataService service(2, 100);
  service.Insert({1, 50, 200, 9, 5000});
  auto hits = service.Query(1, 50, 200);
  ASSERT_EQ(hits.size(), 3u);
  Bytes expected_offset = 50, expected_va = 5000;
  for (const auto& rec : hits) {
    EXPECT_EQ(rec.offset, expected_offset);
    EXPECT_EQ(rec.va, expected_va);
    EXPECT_EQ(rec.producer, 9);
    expected_offset += rec.len;
    expected_va += rec.len;
  }
  EXPECT_EQ(expected_offset, 250u);
}

TEST(MetadataService, Fig3StyleDistribution) {
  // 16 unit segments, range size 4, 2 servers: ranges 1-4 alternate
  // between the two servers, so each holds 8 records.
  DistributedMetadataService service(2, 4);
  for (Bytes off = 0; off < 16; ++off) service.Insert({1, off, 1, static_cast<int>(off) / 8, off});
  EXPECT_EQ(service.RecordCount(0), 8u);
  EXPECT_EQ(service.RecordCount(1), 8u);
  // D12 (offset 11, produced by rank 1) is found via the range owner.
  const int owner = service.ServerOf(11);
  auto hits = service.QueryPartition(owner, 1, 11, 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].producer, 1);
}

TEST(MetadataService, QueryPartitionSeesOnlyItsRanges) {
  DistributedMetadataService service(2, 100);
  service.Insert({1, 0, 400, 5, 0});
  // Server 1 owns [100,200) and [300,400).
  auto hits = service.QueryPartition(1, 1, 0, 400);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].offset, 100u);
  EXPECT_EQ(hits[1].offset, 300u);
}

class ServiceSweep : public ::testing::TestWithParam<int> {};

TEST_P(ServiceSweep, QueryAlwaysCoversInsertedBytes) {
  const int servers = GetParam();
  DistributedMetadataService service(servers, 64);
  // Interleaved producers writing 1000-byte segments.
  for (int p = 0; p < 8; ++p)
    service.Insert({1, static_cast<Bytes>(p) * 1000, 1000, p, static_cast<Bytes>(p) * 7});
  for (Bytes off = 0; off < 8000; off += 512) {
    const Bytes len = std::min<Bytes>(512, 8000 - off);
    Bytes covered = 0;
    for (const auto& rec : service.Query(1, off, len)) covered += rec.len;
    EXPECT_EQ(covered, len) << "offset " << off;
  }
}

INSTANTIATE_TEST_SUITE_P(ServerCounts, ServiceSweep, ::testing::Values(1, 2, 3, 5, 16));

// Reference index: one ordered map over (fid, offset). A query takes the
// record at or before its offset (clipped at the head) and every record
// starting inside the window (clipped at the tail).
class MapIndex {
 public:
  void Insert(const MetadataRecord& rec) { map_[{rec.fid, rec.offset}] = rec; }
  std::size_t size() const { return map_.size(); }

  std::vector<MetadataRecord> Query(storage::FileId fid, Bytes offset, Bytes len) const {
    std::vector<MetadataRecord> out;
    if (len == 0) return out;
    const Bytes end = offset + len;
    auto it = map_.upper_bound({fid, offset});
    if (it != map_.begin()) {
      const MetadataRecord& rec = std::prev(it)->second;
      if (rec.fid == fid && rec.offset < offset && rec.end() > offset) {
        MetadataRecord clipped = rec;
        clipped.offset = offset;
        clipped.va += offset - rec.offset;
        clipped.len = std::min(rec.end() - offset, len);
        out.push_back(clipped);
      }
    }
    for (it = map_.lower_bound({fid, offset}); it != map_.end() && it->first < Key{fid, end};
         ++it) {
      MetadataRecord clipped = it->second;
      clipped.len = std::min(clipped.end(), end) - clipped.offset;
      out.push_back(clipped);
    }
    return out;
  }

  std::vector<MetadataRecord> All() const {
    std::vector<MetadataRecord> out;
    for (const auto& [key, rec] : map_) out.push_back(rec);
    return out;
  }

  /// A window starting inside a random stored record (or anywhere if empty).
  std::pair<storage::FileId, Bytes> InsideSomeRecord(Rng& rng) const {
    if (map_.empty()) return {1, 0};
    auto it = map_.begin();
    std::advance(it, static_cast<long>(rng.NextBelow(map_.size())));
    return {it->second.fid, it->second.offset + rng.NextBelow(it->second.len)};
  }

 private:
  using Key = std::pair<storage::FileId, Bytes>;
  std::map<Key, MetadataRecord> map_;
};

Bytes Covered(const std::vector<MetadataRecord>& recs) {
  Bytes total = 0;
  for (const auto& rec : recs) total += rec.len;
  return total;
}

class IndexDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IndexDifferential, MatchesOrderedMapReference) {
  Rng rng(GetParam());
  const storage::FileId fids[] = {3, 1, 7, 2};
  RecordIndex index;
  MapIndex ref;
  std::map<storage::FileId, Bytes> tail;  // highest offset inserted per fid
  auto check_queries = [&](int round) {
    ASSERT_EQ(index.All(), ref.All()) << "round " << round;
    for (int q = 0; q < 20; ++q) {
      auto [fid, offset] = q % 2 == 0 ? ref.InsideSomeRecord(rng)
                                      : std::pair{fids[rng.NextBelow(4)], rng.NextBelow(17000)};
      const Bytes len = rng.NextBelow(1000);
      ASSERT_EQ(index.Query(fid, offset, len), ref.Query(fid, offset, len))
          << "round " << round << " fid " << fid << " [" << offset << ", +" << len << ")";
      ASSERT_EQ(index.CoveredBytes(fid, offset, len), Covered(ref.Query(fid, offset, len)));
    }
    ASSERT_TRUE(index.Query(99, 0, 1_GiB).empty());
  };
  for (int i = 0; i < 600; ++i) {
    const storage::FileId fid = fids[rng.NextBelow(4)];
    // Half the inserts extend the file (the append path); the rest land
    // anywhere, often on an existing offset, which replaces that record.
    const Bytes offset = rng.NextDouble() < 0.5 ? (tail[fid] += 64 * (1 + rng.NextBelow(3)))
                                                : 64 * rng.NextBelow(256);
    tail[fid] = std::max(tail[fid], offset);
    const MetadataRecord rec{fid, offset, 1 + rng.NextBelow(160),
                             static_cast<std::int64_t>(rng.NextBelow(32)), rng.NextBelow(1_GiB)};
    index.Insert(rec);
    ref.Insert(rec);
    ASSERT_EQ(index.size(), ref.size()) << "insert " << i;
    if (i % 50 == 49) check_queries(i / 50);
  }
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.All().empty());
  EXPECT_TRUE(index.Query(1, 0, 1_GiB).empty());
  index.Insert({5, 10, 20, 1, 100});
  EXPECT_EQ(index.All(), (std::vector<MetadataRecord>{{5, 10, 20, 1, 100}}));
}

TEST_P(IndexDifferential, ServiceQueriesSurviveRetirement) {
  Rng rng(GetParam());
  const int servers = 2 + static_cast<int>(rng.NextBelow(6));
  const Bytes range = Bytes{64} << rng.NextBelow(3);
  DistributedMetadataService service(servers, range);
  MapIndex ref;  // holds the pieces the service splits records into
  auto insert = [&](const MetadataRecord& rec) {
    (void)service.Insert(rec);
    for (Bytes off = rec.offset; off < rec.end();) {
      const Bytes piece = std::min(rec.end(), (off / range + 1) * range) - off;
      ref.Insert({rec.fid, off, piece, rec.producer, rec.va + (off - rec.offset)});
      off += piece;
    }
  };
  auto check_queries = [&] {
    ASSERT_EQ(service.TotalRecords(), ref.size());
    for (int q = 0; q < 40; ++q) {
      auto [fid, offset] = q % 2 == 0 ? ref.InsideSomeRecord(rng)
                                      : std::pair{1 + rng.NextBelow(3), rng.NextBelow(20000)};
      const Bytes len = rng.NextBelow(2000);
      ASSERT_EQ(service.Query(fid, offset, len), ref.Query(fid, offset, len))
          << servers << " servers, range " << range << ", fid " << fid << " [" << offset
          << ", +" << len << ")";
    }
  };
  // Records fill disjoint 300-byte slots in shuffled order, so no two
  // overlap; a slot drawn twice replaces its record.
  for (int i = 0; i < 300; ++i) {
    const Bytes slot = rng.NextBelow(64);
    insert({1 + rng.NextBelow(3), slot * 300 + slot % 7 * 7, 1 + rng.NextBelow(250),
            static_cast<std::int64_t>(rng.NextBelow(32)), rng.NextBelow(1_GiB)});
  }
  check_queries();
  for (int retire = 0; retire < 2; ++retire) {
    const int victim = static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(servers)));
    const std::size_t held = service.RecordCount(victim);
    const bool was_alive = service.ServerAlive(victim);
    EXPECT_EQ(service.RetireServer(victim), was_alive ? held : 0u);
    EXPECT_EQ(service.RecordCount(victim), was_alive ? 0u : held);
    check_queries();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexDifferential, ::testing::Values(1, 2, 3, 11, 77, 4096));

class RecordIndexProperty : public ::testing::TestWithParam<std::uint64_t> {};

// Records fill disjoint 128-byte slots of several files in random order,
// so most inserts land mid-vector, and a slot drawn twice overwrites its
// record at the exact offset. Every answer is sized exactly.
TEST_P(RecordIndexProperty, OutOfOrderInsertsAndOverwritesMatchAnOrderedMap) {
  Rng rng(GetParam());
  const storage::FileId fids[] = {9, 4, 6};
  RecordIndex index;
  MapIndex ref;
  for (int i = 0; i < 400; ++i) {
    const MetadataRecord rec{fids[rng.NextBelow(3)], 128 * rng.NextBelow(64),
                             1 + rng.NextBelow(128), static_cast<std::int64_t>(rng.NextBelow(16)),
                             rng.NextBelow(1_GiB)};
    index.Insert(rec);
    ref.Insert(rec);
    ASSERT_EQ(index.size(), ref.size()) << "insert " << i;
    if (i % 40 != 39) continue;
    const std::vector<MetadataRecord> all = index.All();
    ASSERT_EQ(all, ref.All()) << "insert " << i;
    EXPECT_EQ(all.capacity(), all.size());
    for (int q = 0; q < 30; ++q) {
      // Every fifth window asks a file that was never written.
      const storage::FileId fid = q % 5 == 0 ? 5 : fids[rng.NextBelow(3)];
      const Bytes offset = rng.NextBelow(8500);
      const Bytes len = rng.NextBelow(1500);
      const std::vector<MetadataRecord> got = index.Query(fid, offset, len);
      ASSERT_EQ(got, ref.Query(fid, offset, len))
          << "insert " << i << " fid " << fid << " [" << offset << ", +" << len << ")";
      EXPECT_EQ(got.capacity(), got.size()) << "the answer is allocated at its final size";
      EXPECT_EQ(index.CoveredBytes(fid, offset, len), Covered(got));
    }
  }
}

// The service's merged answer is what concatenating every partition's
// answer and sorting by offset gives, before and after servers retire.
TEST_P(RecordIndexProperty, ServiceQueryIsThePartitionsSortedByOffset) {
  Rng rng(GetParam());
  const int servers = 1 + static_cast<int>(rng.NextBelow(7));
  const Bytes range = Bytes{32} << rng.NextBelow(4);
  DistributedMetadataService service(servers, range);
  auto concatenate_and_sort = [&](storage::FileId fid, Bytes offset, Bytes len) {
    std::vector<MetadataRecord> out;
    for (int s = 0; s < servers; ++s) {
      const std::vector<MetadataRecord> part = service.QueryPartition(s, fid, offset, len);
      out.insert(out.end(), part.begin(), part.end());
    }
    std::sort(out.begin(), out.end(),
              [](const MetadataRecord& a, const MetadataRecord& b) { return a.offset < b.offset; });
    return out;
  };
  auto check_queries = [&](const char* when) {
    for (int q = 0; q < 40; ++q) {
      const storage::FileId fid = 1 + rng.NextBelow(3);
      // Every eighth window is the whole file.
      const Bytes offset = q % 8 == 0 ? 0 : rng.NextBelow(13000);
      const Bytes len = q % 8 == 0 ? 13000 : rng.NextBelow(3000);
      const std::vector<MetadataRecord> got = service.Query(fid, offset, len);
      ASSERT_EQ(got, concatenate_and_sort(fid, offset, len))
          << when << ": " << servers << " servers, range " << range << ", fid " << fid << " ["
          << offset << ", +" << len << ")";
      EXPECT_EQ(got.capacity(), got.size()) << "the answer is allocated at its final size";
    }
  };
  // Records fill disjoint 200-byte slots in shuffled order; each spans up
  // to several ranges.
  for (int i = 0; i < 250; ++i) {
    (void)service.Insert({1 + rng.NextBelow(3), 200 * rng.NextBelow(64), 1 + rng.NextBelow(200),
                          static_cast<std::int64_t>(rng.NextBelow(32)), rng.NextBelow(1_GiB)});
  }
  check_queries("before retirement");
  for (int retire = 0; retire < 2; ++retire) {
    const int victim = static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(servers)));
    (void)service.RetireServer(victim);
    check_queries("after a retirement");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordIndexProperty, ::testing::Values(1, 5, 42, 977, 31337));

}  // namespace
}  // namespace uvs::meta

// Tests for the log-structured store: free-chunk stack, append cascade,
// chunk recycling (§II-B1).
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <numeric>

#include "src/common/rng.hpp"
#include "src/storage/layer_store.hpp"
#include "src/storage/log_file.hpp"

namespace uvs::storage {
namespace {

TEST(FreeChunkStack, PopsLowestFirstInitially) {
  FreeChunkStack stack(4);
  EXPECT_EQ(*stack.Pop(), 0u);
  EXPECT_EQ(*stack.Pop(), 1u);
}

TEST(FreeChunkStack, LifoReuse) {
  FreeChunkStack stack(4);
  (void)stack.Pop();  // 0
  (void)stack.Pop();  // 1
  stack.Push(0);
  EXPECT_EQ(*stack.Pop(), 0u) << "most recently freed chunk pops first";
}

TEST(FreeChunkStack, ExhaustionReturnsError) {
  FreeChunkStack stack(1);
  EXPECT_TRUE(stack.Pop().ok());
  auto r = stack.Pop();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(LogFile, AppendWithinOneChunk) {
  LogFile log(/*capacity=*/1024, /*chunk_size=*/256);
  auto extents = log.AppendUpTo(100);
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0], (Extent{0, 100}));
  EXPECT_EQ(log.used(), 100u);
  EXPECT_EQ(log.appendable(), 1024u - 100u);
}

TEST(LogFile, SequentialAppendsAreContiguous) {
  LogFile log(1024, 256);
  auto first = log.AppendUpTo(100);
  auto second = log.AppendUpTo(100);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].addr, first[0].end());
}

TEST(LogFile, AppendSpanningChunksMergesContiguousPieces) {
  LogFile log(1024, 256);
  // Chunks pop in order 0,1,2,3 => physically contiguous => one extent.
  auto extents = log.AppendUpTo(600);
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0], (Extent{0, 600}));
}

TEST(LogFile, AppendBeyondCapacityReturnsPartial) {
  LogFile log(512, 256);
  auto extents = log.AppendUpTo(1000);
  Bytes total = 0;
  for (const auto& e : extents) total += e.len;
  EXPECT_EQ(total, 512u);
  EXPECT_EQ(log.appendable(), 0u);
  EXPECT_TRUE(log.AppendUpTo(1).empty());
}

TEST(LogFile, FreeRecyclesWholeChunk) {
  LogFile log(512, 256);
  auto extents = log.AppendUpTo(256);
  ASSERT_EQ(log.used(), 256u);
  ASSERT_TRUE(log.Free(extents[0]).ok());
  EXPECT_EQ(log.used(), 0u);
  EXPECT_EQ(log.appendable(), 512u);
  // Recycled chunk is reused (LIFO): next append lands on chunk 0 again.
  auto again = log.AppendUpTo(700);
  Bytes total = 0;
  for (const auto& e : again) total += e.len;
  EXPECT_EQ(total, 512u);
}

TEST(LogFile, PartialFreeKeepsChunkBusy) {
  LogFile log(512, 256);
  (void)log.AppendUpTo(256);
  ASSERT_TRUE(log.Free(Extent{0, 100}).ok());
  EXPECT_EQ(log.used(), 156u);
  // Chunk 0 still has live bytes; appendable space unchanged beyond the
  // second chunk.
  EXPECT_EQ(log.appendable(), 256u);
}

TEST(LogFile, DoubleFreeRejected) {
  LogFile log(512, 256);
  (void)log.AppendUpTo(256);
  ASSERT_TRUE(log.Free(Extent{0, 256}).ok());
  EXPECT_FALSE(log.Free(Extent{0, 256}).ok());
}

TEST(LogFile, FreeBeyondCapacityRejected) {
  LogFile log(512, 256);
  EXPECT_EQ(log.Free(Extent{400, 200}).code(), StatusCode::kOutOfRange);
}

TEST(LogFile, FreeOfNeverTouchedChunkRejected) {
  LogFile log(1024, 256);
  (void)log.AppendUpTo(100);
  EXPECT_EQ(log.Free(Extent{512, 10}).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(log.used(), 100u);
}

TEST(LogFile, HugeVirtualCapacityCostsOnlyTouchedChunks) {
  constexpr std::uint32_t kChunks = 1u << 30;
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  LogFile log(Bytes{kChunks} * 4096, 4096);
  EXPECT_EQ(log.chunk_count(), kChunks);
  EXPECT_EQ(log.appendable(), log.capacity());
  auto extents = log.AppendUpTo(1_MiB);
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0], (Extent{0, 1_MiB}));
  EXPECT_EQ(log.consumed_chunks(), 256u);
  ASSERT_TRUE(log.Free(Extent{0, 8192}).ok());
  EXPECT_EQ(log.consumed_chunks(), 254u);
  // Recycled chunks pop LIFO before the lowest never-used one.
  EXPECT_EQ(log.AppendUpTo(3 * 4096),
            (std::vector<Extent>{{4096, 4096}, {0, 4096}, {1_MiB, 4096}}));
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  // An eager stack and live-byte table would need 12 GiB here.
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 64 * 1024) << "peak RSS grew, in KiB";
}

TEST(LogFile, CapacityRoundsDownToChunks) {
  LogFile log(700, 256);
  EXPECT_EQ(log.capacity(), 512u);
  EXPECT_EQ(log.chunk_count(), 2u);
}

// Property: under random append/free traffic, used() == sum of live extents
// and appendable() + "dead space in open chunk" covers the rest.
class LogFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LogFuzz, AccountingInvariantsHold) {
  Rng rng(GetParam());
  LogFile log(64 * 1024, 1024);
  std::vector<Extent> live;
  Bytes live_bytes = 0;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.NextDouble() < 0.6) {
      const Bytes want = 1 + rng.NextBelow(3000);
      auto extents = log.AppendUpTo(want);
      for (const auto& e : extents) {
        live.push_back(e);
        live_bytes += e.len;
      }
    } else {
      const auto idx = static_cast<std::size_t>(rng.NextBelow(live.size()));
      ASSERT_TRUE(log.Free(live[idx]).ok());
      live_bytes -= live[idx].len;
      live[idx] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(log.used(), live_bytes);
    ASSERT_LE(log.used() + log.appendable(), log.capacity() + log.chunk_size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogFuzz, ::testing::Values(1, 2, 3, 4, 5, 99, 1234));

// Reference log over an eager free-chunk stack: every id pushed up front,
// highest first, and freed ids pushed on top.
struct EagerLog {
  Bytes chunk;
  std::vector<std::uint32_t> stack;
  std::vector<Bytes> live;
  std::int64_t open = -1;
  Bytes fill = 0;

  EagerLog(std::uint32_t chunks, Bytes chunk_size) : chunk(chunk_size), live(chunks, 0) {
    for (std::uint32_t id = chunks; id > 0; --id) stack.push_back(id - 1);
  }
  std::vector<Extent> Append(Bytes len) {
    std::vector<Extent> out;
    while (len > 0) {
      if (open < 0 || fill == chunk) {
        if (stack.empty()) break;
        open = stack.back();
        stack.pop_back();
        fill = 0;
      }
      const Bytes take = std::min(chunk - fill, len);
      const Bytes addr = static_cast<Bytes>(open) * chunk + fill;
      if (!out.empty() && out.back().end() == addr) out.back().len += take;
      else out.push_back(Extent{addr, take});
      fill += take;
      live[static_cast<std::size_t>(open)] += take;
      len -= take;
    }
    return out;
  }
  void Free(const Extent& e) {
    for (Bytes addr = e.addr; addr < e.end();) {
      const Bytes id = addr / chunk;
      const Bytes span = std::min(chunk - addr % chunk, e.end() - addr);
      if ((live[id] -= span) == 0) {
        if (static_cast<std::int64_t>(id) == open) open = -1;
        stack.push_back(static_cast<std::uint32_t>(id));
      }
      addr += span;
    }
  }
};

class LogDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LogDifferential, ChunkIdsPopInEagerStackOrder) {
  Rng rng(GetParam());
  const Bytes chunk = 1 + rng.NextBelow(2048);
  const auto chunks = static_cast<std::uint32_t>(1 + rng.NextBelow(48));
  LogFile log(chunk * chunks, chunk);
  EagerLog ref(chunks, chunk);
  std::vector<Extent> live;
  for (int step = 0; step < 3000; ++step) {
    if (live.empty() || rng.NextDouble() < 0.55) {
      const Bytes want = 1 + rng.NextBelow(3 * chunk);
      const std::vector<Extent> got = log.AppendUpTo(want);
      ASSERT_EQ(got, ref.Append(want)) << "step " << step;
      live.insert(live.end(), got.begin(), got.end());
    } else {
      const auto idx = static_cast<std::size_t>(rng.NextBelow(live.size()));
      ASSERT_TRUE(log.Free(live[idx]).ok());
      ref.Free(live[idx]);
      live[idx] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(log.consumed_chunks(), chunks - ref.stack.size()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogDifferential, ::testing::Values(1, 2, 3, 7, 42, 2024));

TEST(LayerStore, OpenLogGrantsVirtualCapacity) {
  LayerStore store(hw::Layer::kDram, 10 * 1024, 1024);
  LogFile* log = store.OpenLog(LogKey{1, 0}, 4 * 1024);
  ASSERT_NE(log, nullptr);
  EXPECT_EQ(log->capacity(), 4u * 1024);
  // Like mmap: nothing is consumed until data is appended.
  EXPECT_EQ(store.used(), 0u);
  EXPECT_EQ(store.available(), 10u * 1024);
}

TEST(LayerStore, AppendsConsumeWholeChunks) {
  LayerStore store(hw::Layer::kDram, 10 * 1024, 1024);
  LogFile* log = store.OpenLog(LogKey{1, 0}, 4 * 1024);
  (void)log->AppendUpTo(100);
  EXPECT_EQ(store.used(), 1024u) << "chunk-granular accounting";
  (void)log->AppendUpTo(1000);
  EXPECT_EQ(store.used(), 2u * 1024);
}

TEST(LayerStore, OpenLogIsIdempotentPerKey) {
  LayerStore store(hw::Layer::kDram, 10 * 1024, 1024);
  LogFile* a = store.OpenLog(LogKey{1, 0}, 4 * 1024);
  LogFile* b = store.OpenLog(LogKey{1, 0}, 4 * 1024);
  EXPECT_EQ(a, b);
}

TEST(LayerStore, LogsShareThePhysicalBudget) {
  LayerStore store(hw::Layer::kDram, 4 * 1024, 1024);
  LogFile* a = store.OpenLog(LogKey{1, 0}, 4 * 1024);
  LogFile* b = store.OpenLog(LogKey{1, 1}, 4 * 1024);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // a fills 3 chunks; b can then only back one more despite its 4-chunk
  // virtual capacity.
  Bytes a_got = 0;
  for (const auto& e : a->AppendUpTo(3 * 1024)) a_got += e.len;
  EXPECT_EQ(a_got, 3u * 1024);
  Bytes b_got = 0;
  for (const auto& e : b->AppendUpTo(4 * 1024)) b_got += e.len;
  EXPECT_EQ(b_got, 1024u) << "layer exhausted after one chunk";
  EXPECT_EQ(store.available(), 0u);
}

TEST(LayerStore, FreeReturnsChunksToTheStore) {
  LayerStore store(hw::Layer::kDram, 2 * 1024, 1024);
  LogFile* a = store.OpenLog(LogKey{1, 0}, 2 * 1024);
  auto extents = a->AppendUpTo(2 * 1024);
  EXPECT_EQ(store.available(), 0u);
  for (const auto& e : extents) ASSERT_TRUE(a->Free(e).ok());
  EXPECT_EQ(store.available(), 2u * 1024);
  // Another log can now claim the space.
  LogFile* b = store.OpenLog(LogKey{1, 1}, 2 * 1024);
  Bytes b_got = 0;
  for (const auto& e : b->AppendUpTo(2 * 1024)) b_got += e.len;
  EXPECT_EQ(b_got, 2u * 1024);
}

TEST(LayerStore, TooSmallCapacityRejected) {
  LayerStore store(hw::Layer::kDram, 4 * 1024, 1024);
  EXPECT_EQ(store.OpenLog(LogKey{1, 0}, 100), nullptr) << "below one chunk";
}

TEST(LayerStore, DifferentFilesGetDifferentLogs) {
  LayerStore store(hw::Layer::kDram, 10 * 1024, 1024);
  EXPECT_NE(store.OpenLog(LogKey{1, 0}, 1024), store.OpenLog(LogKey{2, 0}, 1024));
}

TEST(LayerStore, DeleteLogReturnsConsumedChunks) {
  LayerStore store(hw::Layer::kDram, 4 * 1024, 1024);
  LogFile* log = store.OpenLog(LogKey{1, 0}, 2 * 1024);
  (void)log->AppendUpTo(2 * 1024);
  EXPECT_EQ(store.used(), 2u * 1024);
  ASSERT_TRUE(store.DeleteLog(LogKey{1, 0}).ok());
  EXPECT_EQ(store.used(), 0u);
  EXPECT_FALSE(store.DeleteLog(LogKey{1, 0}).ok());
}

}  // namespace
}  // namespace uvs::storage

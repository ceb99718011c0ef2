// Tests for the KV substrate: offset-range partitioning.
#include <gtest/gtest.h>

#include "src/kv/range_partitioner.hpp"

namespace uvs::kv {
namespace {

TEST(RangePartitioner, RoundRobinAssignment) {
  // Fig. 3: offsets 1-16 in 4 ranges over 2 servers, alternating.
  RangePartitioner part(2, 4);
  EXPECT_EQ(part.ServerOf(0), 0);
  EXPECT_EQ(part.ServerOf(3), 0);
  EXPECT_EQ(part.ServerOf(4), 1);
  EXPECT_EQ(part.ServerOf(7), 1);
  EXPECT_EQ(part.ServerOf(8), 0);
  EXPECT_EQ(part.ServerOf(12), 1);
}

TEST(RangePartitioner, ServersForSmallRangeTouchesOne) {
  RangePartitioner part(4, 100);
  auto servers = part.ServersFor(10, 50);
  ASSERT_EQ(servers.size(), 1u);
  EXPECT_EQ(servers[0], 0);
}

TEST(RangePartitioner, ServersForWideRangeTouchesAll) {
  RangePartitioner part(4, 100);
  auto servers = part.ServersFor(0, 400);
  EXPECT_EQ(servers, (std::vector<int>{0, 1, 2, 3}));
}

TEST(RangePartitioner, ServersForCrossingOneBoundary) {
  RangePartitioner part(4, 100);
  auto servers = part.ServersFor(90, 20);  // ranges 0 and 1
  EXPECT_EQ(servers, (std::vector<int>{0, 1}));
}

TEST(RangePartitioner, EmptyRangeTouchesNobody) {
  RangePartitioner part(4, 100);
  EXPECT_TRUE(part.ServersFor(50, 0).empty());
  EXPECT_TRUE(part.PiecesFor(0, 50, 0).empty());
}

TEST(RangePartitioner, PiecesForReturnsOwnedSubranges) {
  RangePartitioner part(2, 100);
  // [50, 350): server 0 owns [50,100) and [200,300); server 1 the rest.
  auto s0 = part.PiecesFor(0, 50, 300);
  ASSERT_EQ(s0.size(), 2u);
  EXPECT_EQ(s0[0], (std::pair<Bytes, Bytes>{50, 50}));
  EXPECT_EQ(s0[1], (std::pair<Bytes, Bytes>{200, 100}));
  auto s1 = part.PiecesFor(1, 50, 300);
  ASSERT_EQ(s1.size(), 2u);
  EXPECT_EQ(s1[0], (std::pair<Bytes, Bytes>{100, 100}));
  EXPECT_EQ(s1[1], (std::pair<Bytes, Bytes>{300, 50}));
}

class PartitionCoverage : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PartitionCoverage, PiecesPartitionTheQueryExactly) {
  const auto [servers, range_size] = GetParam();
  RangePartitioner part(servers, static_cast<Bytes>(range_size));
  const Bytes offset = 37;
  const Bytes len = 1234;
  Bytes total = 0;
  for (int s = 0; s < servers; ++s) {
    for (auto [lo, piece] : part.PiecesFor(s, offset, len)) {
      EXPECT_GE(lo, offset);
      EXPECT_LE(lo + piece, offset + len);
      EXPECT_EQ(part.ServerOf(lo), s);
      total += piece;
    }
  }
  EXPECT_EQ(total, len) << "pieces across servers must tile the query";
}

INSTANTIATE_TEST_SUITE_P(Shapes, PartitionCoverage,
                         ::testing::Combine(::testing::Values(1, 2, 3, 8),
                                            ::testing::Values(16, 100, 1000)));

}  // namespace
}  // namespace uvs::kv

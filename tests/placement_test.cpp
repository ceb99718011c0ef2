// Tests for virtual addressing (Eq. 1), the DHP spill cascade, and
// adaptive striping (Eqs. 2–6).
#include <gtest/gtest.h>

#include <vector>

#include "src/placement/dhp.hpp"
#include "src/placement/striping.hpp"
#include "src/placement/virtual_address.hpp"

namespace uvs::placement {
namespace {

using hw::Layer;

TEST(VirtualAddress, PaperFig2Example) {
  // Node-local log capacity 2, shared-BB log capacity 3: segment D4 at
  // physical address 1 in the BB log has VA = 2 + 1 = 3.
  VirtualAddressCodec codec({2, 0, 3, 0});
  auto va = codec.Encode(Layer::kSharedBurstBuffer, 1);
  ASSERT_TRUE(va.ok());
  EXPECT_EQ(*va, 3u);
  auto decoded = codec.Decode(3);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, (LayerAddress{Layer::kSharedBurstBuffer, 1}));
}

TEST(VirtualAddress, Layer0IsIdentity) {
  VirtualAddressCodec codec({100, 0, 50, 0});
  EXPECT_EQ(*codec.Encode(Layer::kDram, 42), 42u);
  EXPECT_EQ(codec.Decode(42)->layer, Layer::kDram);
}

TEST(VirtualAddress, EncodeRejectsBeyondLogCapacity) {
  VirtualAddressCodec codec({100, 0, 50, 0});
  EXPECT_FALSE(codec.Encode(Layer::kDram, 100).ok());
  EXPECT_TRUE(codec.Encode(Layer::kDram, 99).ok());
}

TEST(VirtualAddress, LastLayerIsUnbounded) {
  VirtualAddressCodec codec({100, 0, 50, 0});
  auto va = codec.Encode(Layer::kPfs, 1'000'000);
  ASSERT_TRUE(va.ok());
  EXPECT_EQ(*va, 150u + 1'000'000u);
  EXPECT_EQ(codec.Decode(*va)->physical, 1'000'000u);
}

TEST(VirtualAddress, SameVaDifferentProducersNeedProcId) {
  // §II-B3: D4 and D12 from different producers both map to VA 3; the VA
  // alone cannot distinguish them — two independent codecs agree on 3.
  VirtualAddressCodec node1({2, 0, 3, 0});
  VirtualAddressCodec node2({2, 0, 3, 0});
  EXPECT_EQ(*node1.Encode(Layer::kSharedBurstBuffer, 1),
            *node2.Encode(Layer::kSharedBurstBuffer, 1));
}

class VaRoundTrip : public ::testing::TestWithParam<std::tuple<int, Bytes>> {};

// Encode fails exactly when the address lies at or beyond its layer's log
// capacity (the last layer, the PFS, is unbounded) and round-trips
// through Decode otherwise.
TEST_P(VaRoundTrip, EncodeDecodeIsIdentity) {
  const auto [layer_idx, phys] = GetParam();
  const std::vector<Bytes> capacities{1000, 500, 2000, 0};
  VirtualAddressCodec codec(capacities);
  const auto layer = static_cast<Layer>(layer_idx);
  auto va = codec.Encode(layer, phys);
  const bool last = layer_idx + 1 == static_cast<int>(capacities.size());
  if (!last && phys >= capacities[static_cast<std::size_t>(layer_idx)]) {
    ASSERT_FALSE(va.ok()) << "address beyond layer capacity must not encode";
    EXPECT_EQ(va.status().code(), StatusCode::kOutOfRange);
    return;
  }
  ASSERT_TRUE(va.ok()) << va.status().ToString();
  auto back = codec.Decode(*va);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->layer, layer);
  EXPECT_EQ(back->physical, phys);
}

INSTANTIATE_TEST_SUITE_P(Addresses, VaRoundTrip,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values<Bytes>(0, 1, 499, 999, 1999,
                                                                     123456)));

TEST(DefaultLogCapacity, DividesByProcessCount) {
  EXPECT_EQ(DefaultLogCapacity(64_GiB, 32), 2_GiB);
  EXPECT_EQ(DefaultLogCapacity(100, 3), 33u);
}

struct DhpFixture {
  storage::LayerStore dram{Layer::kDram, 1000, 100};
  storage::LayerStore bb{Layer::kSharedBurstBuffer, 2000, 100};

  DhpWriterChain MakeChain(Bytes dram_cap, Bytes bb_cap) {
    return DhpWriterChain(storage::LogKey{1, 0}, {&dram, &bb}, {dram_cap, bb_cap});
  }
};

TEST(Dhp, SmallAppendStaysInFastestLayer) {
  DhpFixture f;
  auto chain = f.MakeChain(500, 500);
  auto placements = chain.Append(200);
  ASSERT_EQ(placements.size(), 1u);
  EXPECT_EQ(placements[0].layer, Layer::kDram);
  EXPECT_EQ(placements[0].va, 0u);
  EXPECT_EQ(chain.PlacedOn(Layer::kDram), 200u);
}

TEST(Dhp, SpillCascadesThroughLayers) {
  DhpFixture f;
  auto chain = f.MakeChain(300, 400);
  auto placements = chain.Append(1000);
  // 300 to DRAM, 400 to BB, 300 to PFS.
  ASSERT_EQ(placements.size(), 3u);
  EXPECT_EQ(placements[0].layer, Layer::kDram);
  EXPECT_EQ(placements[0].extent.len, 300u);
  EXPECT_EQ(placements[1].layer, Layer::kSharedBurstBuffer);
  EXPECT_EQ(placements[1].extent.len, 400u);
  EXPECT_EQ(placements[2].layer, Layer::kPfs);
  EXPECT_EQ(placements[2].extent.len, 300u);
  EXPECT_EQ(chain.PlacedOn(Layer::kPfs), 300u);
}

TEST(Dhp, VirtualAddressesFollowEq1AcrossSpill) {
  DhpFixture f;
  auto chain = f.MakeChain(300, 400);
  auto placements = chain.Append(1000);
  ASSERT_EQ(placements.size(), 3u);
  EXPECT_EQ(placements[0].va, 0u);
  EXPECT_EQ(placements[1].va, 300u);        // prefix(DRAM cap)
  EXPECT_EQ(placements[2].va, 300u + 400u);  // prefix(DRAM + BB caps)
}

TEST(Dhp, SecondAppendContinuesWhereFirstEnded) {
  DhpFixture f;
  auto chain = f.MakeChain(300, 400);
  (void)chain.Append(250);
  auto second = chain.Append(100);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].layer, Layer::kDram);
  EXPECT_EQ(second[0].extent.len, 50u);
  EXPECT_EQ(second[1].layer, Layer::kSharedBurstBuffer);
  EXPECT_EQ(second[1].va, 300u);
}

TEST(Dhp, ZeroCapacityLayerIsSkipped) {
  DhpFixture f;
  auto chain = f.MakeChain(0, 400);
  auto placements = chain.Append(100);
  ASSERT_EQ(placements.size(), 1u);
  EXPECT_EQ(placements[0].layer, Layer::kSharedBurstBuffer);
}

TEST(Dhp, FreeRecyclesLogSpace) {
  DhpFixture f;
  auto chain = f.MakeChain(300, 0);
  auto placements = chain.Append(300);
  ASSERT_EQ(placements.size(), 1u);
  ASSERT_TRUE(chain.Free(placements[0]).ok());
  EXPECT_EQ(chain.PlacedOn(Layer::kDram), 0u);
  // Chunks recycle LIFO, so the re-append may come back as several
  // non-contiguous extents — but all of them in the fast layer.
  auto again = chain.Append(300);
  Bytes total = 0;
  for (const auto& p : again) {
    EXPECT_EQ(p.layer, Layer::kDram) << "space reclaimed in the fast layer";
    total += p.extent.len;
  }
  EXPECT_EQ(total, 300u);
}

TEST(Dhp, ChainsSharingALayerStoreCompeteForChunks) {
  DhpFixture f;  // dram: 1000 bytes capacity, 100-byte chunks
  DhpWriterChain a(storage::LogKey{1, 0}, {&f.dram}, {600});
  DhpWriterChain b(storage::LogKey{1, 1}, {&f.dram}, {600});
  EXPECT_EQ(a.codec().capacity(Layer::kDram), 600u);
  EXPECT_EQ(b.codec().capacity(Layer::kDram), 600u);
  // a consumes its full virtual capacity; b only gets what is left of the
  // physical layer (1000 - 600), spilling the rest.
  (void)a.Append(600);
  auto placements = b.Append(600);
  EXPECT_EQ(b.PlacedOn(Layer::kDram), 400u);
  EXPECT_EQ(b.PlacedOn(Layer::kPfs), 200u);
  (void)placements;
}

TEST(AdaptiveStriping, Case1DistinctSets) {
  // 4 servers, 32 OSTs, alpha 4: each server saturates its own 4 OSTs.
  auto plan = PlanAdaptiveStriping(64_GiB, 4, 32, {.alpha = 4, .max_stripe_size = 1_GiB});
  EXPECT_EQ(plan.mode, StripeMode::kDistinctSets);
  EXPECT_EQ(plan.osts_per_server, 4);
  // Eq. 3: min(64 GiB / 16, 1 GiB) = 1 GiB.
  EXPECT_EQ(plan.stripe_size, 1_GiB);
  // Eq. 4: min(64, 32) = 32.
  EXPECT_EQ(plan.stripe_count, 32);
  EXPECT_EQ(plan.TargetsFor(0), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(plan.TargetsFor(3), (std::vector<int>{12, 13, 14, 15}));
}

TEST(AdaptiveStriping, Case1AlphaCapsPerServerOsts) {
  auto plan = PlanAdaptiveStriping(64_GiB, 2, 100, {.alpha = 8, .max_stripe_size = 1_GiB});
  EXPECT_EQ(plan.osts_per_server, 8) << "alpha bounds Eq. 2";
}

TEST(AdaptiveStriping, Case1SetsAreDisjoint) {
  auto plan = PlanAdaptiveStriping(10_GiB, 6, 30, {.alpha = 4, .max_stripe_size = 1_GiB});
  std::vector<bool> seen(30, false);
  for (int s = 0; s < 6; ++s) {
    for (int ost : plan.TargetsFor(s)) {
      EXPECT_FALSE(seen[static_cast<std::size_t>(ost)]) << "OST " << ost << " reused";
      seen[static_cast<std::size_t>(ost)] = true;
    }
  }
}

TEST(AdaptiveStriping, Case2PaperExample) {
  // §II-D: 248 OSTs, 512 servers => 512 % 248 = 16 straggler OSTs without
  // the dummy rounding; Eq. 6 rounds the server count up to the next
  // multiple of 248 (= 744; the paper's printed "724" is arithmetically
  // inconsistent with ceil(512/248)*248).
  auto plan = PlanAdaptiveStriping(1_TiB, 512, 248, {});
  EXPECT_EQ(plan.mode, StripeMode::kOneOstPerServer);
  EXPECT_EQ(plan.dummy_servers, 744);
  EXPECT_EQ(plan.stripe_size, 1_TiB / 744);
  EXPECT_EQ(plan.TargetsFor(0), (std::vector<int>{0}));
  EXPECT_EQ(plan.TargetsFor(248), (std::vector<int>{0}));
}

TEST(AdaptiveStriping, Case2BalancesOstLoadExactly) {
  auto plan = PlanAdaptiveStriping(1_GiB, 500, 100, {});
  std::vector<int> per_ost(100, 0);
  for (int s = 0; s < 500; ++s)
    for (int ost : plan.TargetsFor(s)) ++per_ost[static_cast<std::size_t>(ost)];
  for (int load : per_ost) EXPECT_EQ(load, 5);
}

TEST(AdaptiveStriping, DivisibleServerCountNeedsNoDummies) {
  auto plan = PlanAdaptiveStriping(1_GiB, 496, 248, {});
  EXPECT_EQ(plan.dummy_servers, 496);
}

TEST(AdaptiveStriping, Case1OstBudgetNotAlphaCapsWhenServersAreScarce) {
  // 2 servers (< alpha = 8) over 4 OSTs: Eq. 2's osts/servers term, not
  // alpha, is the binding constraint, and the distinct sets still tile the
  // OST pool without overlap.
  auto plan = PlanAdaptiveStriping(1_GiB, 2, 4, {.alpha = 8, .max_stripe_size = 1_GiB});
  EXPECT_EQ(plan.mode, StripeMode::kDistinctSets);
  EXPECT_EQ(plan.osts_per_server, 2);  // min(4 / 2, 8)
  EXPECT_EQ(plan.TargetsFor(0), (std::vector<int>{0, 1}));
  EXPECT_EQ(plan.TargetsFor(1), (std::vector<int>{2, 3}));
}

TEST(AdaptiveStriping, Case1SingleServerTakesAllOstsUpToAlpha) {
  auto few = PlanAdaptiveStriping(1_GiB, 1, 4, {.alpha = 8, .max_stripe_size = 1_GiB});
  EXPECT_EQ(few.osts_per_server, 4) << "fewer OSTs than alpha: all of them";
  EXPECT_EQ(few.TargetsFor(0), (std::vector<int>{0, 1, 2, 3}));
  auto many = PlanAdaptiveStriping(1_GiB, 1, 32, {.alpha = 8, .max_stripe_size = 1_GiB});
  EXPECT_EQ(many.osts_per_server, 8) << "more OSTs than alpha: alpha caps Eq. 2";
}

TEST(AdaptiveStriping, Case1TinyFileKeepsAtLeastOneByteStripes) {
  // A file smaller than servers * osts_per_server would push Eq. 3 to a
  // zero stripe size; the plan must floor at one byte and one stripe.
  auto plan = PlanAdaptiveStriping(3, 2, 4, {.alpha = 8, .max_stripe_size = 1_GiB});
  EXPECT_GE(plan.stripe_size, 1u);
  EXPECT_GE(plan.stripe_count, 1);
  Bytes total = 0;
  for (int s = 0; s < plan.servers; ++s) total += plan.RangeBytesFor(s, 3);
  EXPECT_EQ(total, 3u);
}

TEST(AdaptiveStriping, Case2ServersNotDivisibleByOsts) {
  // 10 servers over 4 OSTs: Eq. 6 rounds up to 12 dummy servers. The two
  // trailing dummies are never materialized, so OSTs 2 and 3 serve one
  // fewer real range — the residual imbalance the rounding minimizes.
  auto plan = PlanAdaptiveStriping(120_MiB, 10, 4, {});
  EXPECT_EQ(plan.mode, StripeMode::kOneOstPerServer);
  EXPECT_EQ(plan.dummy_servers, 12);
  EXPECT_EQ(plan.stripe_size, 10_MiB);  // Eq. 5: Sfile / Cdum_servers
  std::vector<int> per_ost(4, 0);
  for (int s = 0; s < 10; ++s)
    for (int ost : plan.TargetsFor(s)) ++per_ost[static_cast<std::size_t>(ost)];
  EXPECT_EQ(per_ost, (std::vector<int>{3, 3, 2, 2}));
  // The real servers still cover the file exactly despite the rounding.
  Bytes total = 0;
  for (int s = 0; s < 10; ++s) total += plan.RangeBytesFor(s, 120_MiB);
  EXPECT_EQ(total, 120_MiB);
}

TEST(AdaptiveStriping, PaperDummyServerArithmeticSlip) {
  // §II-D's worked example prints Cdum_servers = 724 for 512 servers on
  // 248 OSTs, but 724 is not a multiple of 248 (724 = 2*248 + 228), so it
  // cannot equalize per-OST load; Eq. 6 as written yields
  // ceil(512/248)*248 = 744. Pin both facts so the discrepancy between
  // the paper's text and its own equation stays documented.
  EXPECT_NE(724 % 248, 0) << "the paper's printed value cannot balance OST load";
  EXPECT_EQ((512 + 248 - 1) / 248 * 248, 744);
  auto plan = PlanAdaptiveStriping(1_TiB, 512, 248, {});
  EXPECT_EQ(plan.dummy_servers, 744);
}

TEST(DefaultStriping, TargetsEveryOst) {
  auto plan = PlanDefaultStriping(1_GiB, 16, 8);
  EXPECT_EQ(plan.mode, StripeMode::kAllOsts);
  EXPECT_EQ(plan.TargetsFor(5).size(), 8u);
  EXPECT_EQ(plan.stripe_size, 1_MiB);
}

TEST(StripePlan, RangeBytesSumToFileSize) {
  auto plan = PlanAdaptiveStriping(1'000'003, 7, 100, {});
  Bytes total = 0;
  for (int s = 0; s < 7; ++s) total += plan.RangeBytesFor(s, 1'000'003);
  EXPECT_EQ(total, 1'000'003u);
}

class StripingSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(StripingSweep, PlanInvariants) {
  const auto [servers, osts] = GetParam();
  auto plan = PlanAdaptiveStriping(100_GiB, servers, osts, {.alpha = 8,
                                                            .max_stripe_size = 1_GiB});
  EXPECT_GT(plan.stripe_size, 0u);
  EXPECT_GE(plan.stripe_count, 1);
  EXPECT_LE(plan.stripe_count, osts);
  EXPECT_GE(plan.dummy_servers, servers);
  EXPECT_EQ(plan.dummy_servers % (servers <= osts ? 1 : osts), 0);
  for (int s = 0; s < servers; ++s)
    for (int ost : plan.TargetsFor(s)) {
      EXPECT_GE(ost, 0);
      EXPECT_LT(ost, osts);
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, StripingSweep,
                         ::testing::Combine(::testing::Values(1, 2, 16, 248, 512, 1000),
                                            ::testing::Values(8, 248)));

}  // namespace
}  // namespace uvs::placement

// Offline what-if explorer for UniviStor's placement machinery: given a
// file size, server count, and OST count it prints the adaptive striping
// plan (Eqs. 2–6) next to the non-adaptive default, and shows how a
// per-process DHP log chain carves a write across the storage layers with
// the virtual addresses of Eq. 1.
//
//   $ ./build/examples/tier_planner [file_GiB] [servers] [osts]
// (positive integers; servers and OSTs at most 65536).
#include <cstdio>

#include "src/common/parse.hpp"
#include "src/common/strings.hpp"
#include "src/placement/dhp.hpp"
#include "src/placement/striping.hpp"

using namespace uvs;
using namespace uvs::placement;

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what);
    ++g_failures;
  }
}

void CheckPlan(const StripePlan& plan, Bytes file_size) {
  Check(plan.stripe_count >= 1, "plan has at least one stripe target per server");
  Check(plan.dummy_servers >= 0, "dummy server count is non-negative");
  Bytes covered = 0;
  for (int s = 0; s < plan.servers; ++s) {
    covered += plan.RangeBytesFor(s, file_size);
    Check(!plan.TargetsFor(s).empty(), "every server has OST targets");
  }
  Check(covered == file_size, "server ranges cover the file exactly");
}

void PrintPlan(const char* name, const StripePlan& plan, Bytes file_size) {
  std::printf("%-10s stripe_size=%-10s stripe_count=%-4d mode=%s dummy_servers=%d\n", name,
              HumanBytes(plan.stripe_size).c_str(), plan.stripe_count,
              plan.mode == StripeMode::kDistinctSets      ? "distinct-sets"
              : plan.mode == StripeMode::kOneOstPerServer ? "one-ost-per-server"
                                                          : "all-osts",
              plan.dummy_servers);
  for (int s = 0; s < std::min(4, plan.servers); ++s) {
    std::printf("    server %d -> %s on OSTs [", s,
                HumanBytes(plan.RangeBytesFor(s, file_size)).c_str());
    const auto targets = plan.TargetsFor(s);
    for (std::size_t i = 0; i < std::min<std::size_t>(targets.size(), 10); ++i)
      std::printf("%s%d", i ? "," : "", targets[i]);
    if (targets.size() > 10) std::printf(",... %zu total", targets.size());
    std::printf("]\n");
  }
  if (plan.servers > 4) std::printf("    ... %d more servers\n", plan.servers - 4);
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kTool = "tier_planner";
  const Bytes file_size =
      static_cast<Bytes>(argc > 1 ? FlagNumber(kTool, "file_GiB", argv[1], 1) : 64) * 1_GiB;
  const int servers = argc > 2 ? FlagNumber(kTool, "servers", argv[2], 1, 65536) : 512;
  const int osts = argc > 3 ? FlagNumber(kTool, "osts", argv[3], 1, 65536) : 248;

  std::printf("== Adaptive striping (Eqs. 2-6): %s over %d servers, %d OSTs ==\n",
              HumanBytes(file_size).c_str(), servers, osts);
  const StripePlan adaptive = PlanAdaptiveStriping(file_size, servers, osts, StripingParams{});
  const StripePlan fallback = PlanDefaultStriping(file_size, servers, osts);
  PrintPlan("ADPT", adaptive, file_size);
  PrintPlan("default", fallback, file_size);
  CheckPlan(adaptive, file_size);
  CheckPlan(fallback, file_size);

  std::printf("\n== DHP chain (Eq. 1 virtual addresses) ==\n");
  storage::LayerStore dram(hw::Layer::kDram, 1_GiB, 64_MiB);
  storage::LayerStore bb(hw::Layer::kSharedBurstBuffer, 4_GiB, 64_MiB);
  DhpWriterChain chain(storage::LogKey{1, 0}, {&dram, &bb},
                       {DefaultLogCapacity(1_GiB, 2), DefaultLogCapacity(4_GiB, 2)});
  std::printf("per-process log capacities: DRAM=%s BB=%s (c/p with p=2)\n",
              HumanBytes(chain.codec().capacity(hw::Layer::kDram)).c_str(),
              HumanBytes(chain.codec().capacity(hw::Layer::kSharedBurstBuffer)).c_str());

  for (Bytes write : {384_MiB, 512_MiB, 3_GiB}) {
    std::printf("append %s:\n", HumanBytes(write).c_str());
    Bytes placed = 0;
    for (const auto& piece : chain.Append(write)) {
      std::printf("    layer=%-8s phys=%-12llu len=%-10s VA=%llu\n",
                  hw::LayerName(piece.layer),
                  static_cast<unsigned long long>(piece.extent.addr),
                  HumanBytes(piece.extent.len).c_str(),
                  static_cast<unsigned long long>(piece.va));
      placed += piece.extent.len;
      const auto decoded = chain.codec().Decode(piece.va);
      Check(decoded.ok() && decoded->layer == piece.layer &&
                decoded->physical == piece.extent.addr,
            "virtual address round-trips through the Eq. 1 codec");
    }
    Check(placed == write, "the DHP chain places every appended byte");
  }
  return g_failures == 0 ? 0 : 1;
}

// google-benchmark microbenchmarks for the core data structures: the
// log-structured store, virtual-address codec, range partitioner, metadata
// record index and distributed metadata service, adaptive striping
// planner, the obs span log and attribution pass, and one UniviStor
// deployment.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/kv/range_partitioner.hpp"
#include "src/meta/record_index.hpp"
#include "src/meta/service.hpp"
#include "src/obs/attribution.hpp"
#include "src/obs/recorder.hpp"
#include "src/placement/striping.hpp"
#include "src/placement/virtual_address.hpp"
#include "src/storage/log_file.hpp"
#include "src/univistor/system.hpp"
#include "src/workload/scenario.hpp"

namespace uvs {
namespace {

void BM_LogAppend(benchmark::State& state) {
  const auto segment = static_cast<Bytes>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    storage::LogFile log(1_GiB, 32_MiB);
    state.ResumeTiming();
    while (log.appendable() >= segment) benchmark::DoNotOptimize(log.AppendUpTo(segment));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(1_GiB));
}
BENCHMARK(BM_LogAppend)->Arg(64 << 10)->Arg(1 << 20)->Arg(32 << 20);

void BM_LogAppendFreeChurn(benchmark::State& state) {
  storage::LogFile log(256_MiB, 8_MiB);
  Rng rng(42);
  std::vector<storage::Extent> live;
  for (auto _ : state) {
    if (live.size() < 8 || rng.NextDouble() < 0.5) {
      auto extents = log.AppendUpTo(1 + rng.NextBelow(4_MiB));
      live.insert(live.end(), extents.begin(), extents.end());
      if (extents.empty() && !live.empty()) {
        (void)log.Free(live.back());
        live.pop_back();
      }
    } else {
      (void)log.Free(live.back());
      live.pop_back();
    }
  }
}
BENCHMARK(BM_LogAppendFreeChurn);

// Opening one (file, rank) log at the burst-buffer share of a 1024-rank
// run (96 GiB virtual, 32 MiB chunks) and writing its first chunk.
void BM_LogOpenFirstAppend(benchmark::State& state) {
  const Bytes capacity = static_cast<Bytes>(state.range(0)) * 1_GiB;
  for (auto _ : state) {
    storage::LogFile log(capacity, 32_MiB);
    benchmark::DoNotOptimize(log.AppendUpTo(32_MiB));
  }
}
BENCHMARK(BM_LogOpenFirstAppend)->ArgName("virtual_gib")->Arg(96);

// One file laid out the way VPIC-IO writes it: 40 datasets in a row, each
// holding one 1 MiB block per producer at dataset base + producer x 1 MiB.
// The blocks arrive in offset order, or VPIC-like: dataset by dataset, with
// each dataset's 32 blocks in a shuffled producer order, as concurrent
// ranks finish their writes.
std::vector<meta::MetadataRecord> ProducerRecords(bool shuffled) {
  constexpr Bytes kProducers = 32;
  constexpr Bytes kDatasets = 40;
  Rng rng(11);
  std::vector<meta::MetadataRecord> records;
  for (Bytes dataset = 0; dataset < kDatasets; ++dataset) {
    std::vector<Bytes> order(kProducers);
    std::iota(order.begin(), order.end(), Bytes{0});
    if (shuffled) {
      for (Bytes i = kProducers - 1; i > 0; --i) std::swap(order[i], order[rng.NextBelow(i + 1)]);
    }
    for (Bytes producer : order) {
      const Bytes offset = (dataset * kProducers + producer) * 1_MiB;
      records.push_back({1, offset, 1_MiB, static_cast<std::int64_t>(producer), offset});
    }
  }
  return records;
}

void BM_RecordIndexInsert(benchmark::State& state) {
  const std::vector<meta::MetadataRecord> records = ProducerRecords(state.range(0) != 0);
  for (auto _ : state) {
    meta::RecordIndex index;
    for (const auto& rec : records) index.Insert(rec);
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * records.size()));
}
BENCHMARK(BM_RecordIndexInsert)->ArgName("shuffled")->Arg(0)->Arg(1);

void BM_RecordIndexQuery(benchmark::State& state) {
  meta::RecordIndex index;
  const std::vector<meta::MetadataRecord> records = ProducerRecords(true);
  for (const auto& rec : records) index.Insert(rec);
  const Bytes span = records.size() * 1_MiB;
  Rng rng(7);
  for (auto _ : state) {
    const Bytes offset = rng.NextBelow(span);
    benchmark::DoNotOptimize(index.Query(1, offset, static_cast<Bytes>(state.range(0)) * 1_MiB));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RecordIndexQuery)->ArgName("window_mib")->Arg(1)->Arg(32);

void BM_VirtualAddressEncode(benchmark::State& state) {
  placement::VirtualAddressCodec codec({1_GiB, 0, 16_GiB, 0});
  Bytes addr = 0;
  for (auto _ : state) {
    addr = (addr + 4097) % 16_GiB;
    benchmark::DoNotOptimize(codec.Encode(hw::Layer::kSharedBurstBuffer, addr));
  }
}
BENCHMARK(BM_VirtualAddressEncode);

void BM_VirtualAddressDecode(benchmark::State& state) {
  placement::VirtualAddressCodec codec({1_GiB, 0, 16_GiB, 0});
  Bytes va = 0;
  for (auto _ : state) {
    va = (va + 4097) % 17_GiB;
    benchmark::DoNotOptimize(codec.Decode(va));
  }
}
BENCHMARK(BM_VirtualAddressDecode);

void BM_RangePartitionerServersFor(benchmark::State& state) {
  kv::RangePartitioner part(static_cast<int>(state.range(0)), 8_MiB);
  Bytes offset = 0;
  for (auto _ : state) {
    offset = (offset + 123457) % 1_TiB;
    benchmark::DoNotOptimize(part.ServersFor(offset, 256_MiB));
  }
}
BENCHMARK(BM_RangePartitionerServersFor)->Arg(16)->Arg(512);

void BM_MetadataInsert(benchmark::State& state) {
  const int servers = static_cast<int>(state.range(0));
  meta::DistributedMetadataService service(servers, 8_MiB);
  Bytes offset = 0;
  std::int64_t producer = 0;
  for (auto _ : state) {
    service.Insert({1, offset, 32_MiB, producer++, offset});
    offset += 32_MiB;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetadataInsert)->Arg(16)->Arg(512);

void BM_MetadataQuery(benchmark::State& state) {
  meta::DistributedMetadataService service(64, 8_MiB);
  for (Bytes off = 0; off < 64_GiB; off += 32_MiB)
    service.Insert({1, off, 32_MiB, static_cast<std::int64_t>(off), off});
  Rng rng(7);
  for (auto _ : state) {
    const Bytes off = rng.NextBelow(63) * 1_GiB;
    benchmark::DoNotOptimize(service.Query(1, off, 256_MiB));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetadataQuery);

void BM_AdaptiveStripingPlan(benchmark::State& state) {
  const int servers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        placement::PlanAdaptiveStriping(2_TiB, servers, 248, placement::StripingParams{}));
  }
}
BENCHMARK(BM_AdaptiveStripingPlan)->Arg(16)->Arg(512)->Arg(4096);

// Span traffic shaped like a metadata-heavy VPIC run: each rank op is an
// umbrella span with a pre-allocated identity whose children are one
// metadata RPC, recorded as UniviStor records it (one span-log slot that
// readers expand into its four spans on the rank and metadata-server
// lanes), and an OST access; every 16th op also closes a file whose flush
// it links to.
void RecordSyntheticRun(obs::Recorder& rec, int ranks, int ops) {
  using obs::Category;
  constexpr std::uint8_t kAllRpcParts = obs::Recorder::kRpcService |
                                        obs::Recorder::kRpcRoundtrip |
                                        obs::Recorder::kRpcQueue |
                                        obs::Recorder::kRpcRankService;
  for (int op = 0; op < ops; ++op) {
    for (int r = 0; r < ranks; ++r) {
      const Time t = op + 1e-3 * r;
      const obs::Track rank = obs::Track::Rank(r / 32, 0, r);
      const int server = r % 4;
      const obs::SpanRef umbrella = rec.NewSpanRef();
      rec.AddMetadataRpc(rank, obs::Track::MetaServer(server / 2, 1, server), umbrella,
                         {t, t + 0.05, t + 0.1, t + 0.25}, kAllRpcParts);
      rec.AddSpanTagged("hw", "ost.access", obs::Track::Ost(r % 8), t + 0.3, t + 0.6, 1_MiB,
                        {.cat = Category::kPfs, .parent = umbrella, .ideal = 0.2});
      rec.AddSpanTagged("vmpi", "write", rank, t, t + 0.7, 1_MiB, {.self = umbrella});
      if (op % 16 == 15 && r == 0) {
        const obs::SpanRef flush = rec.NewSpanRef();
        rec.AddSpanTagged("univistor", "flush", obs::Track::Flush(op), t + 0.7, t + 0.9,
                          obs::kNoBytes, {.self = flush});
        rec.AddLink(umbrella, flush);
      }
    }
  }
}

void BM_RecorderAddSpan(benchmark::State& state) {
  constexpr int kRanks = 64, kOps = 256;  // 98 k spans in 49 k slots: one and a half blocks
  std::size_t spans = 0;
  for (auto _ : state) {
    obs::Recorder rec;
    RecordSyntheticRun(rec, kRanks, kOps);
    spans = rec.span_count();
    benchmark::DoNotOptimize(spans);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * spans));
}
BENCHMARK(BM_RecorderAddSpan);

void BM_Analyze(benchmark::State& state) {
  obs::Recorder rec;
  RecordSyntheticRun(rec, 64, static_cast<int>(state.range(0)));
  const std::vector<obs::JobSpec> jobs{{0, "app", false, 64}};
  for (auto _ : state) benchmark::DoNotOptimize(obs::Analyze(rec, jobs, state.range(0) + 1.0));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * rec.span_count()));
}
BENCHMARK(BM_Analyze)->ArgName("ops")->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

// Builds and destroys one UniviStor on perfbench cluster_mix's machine
// (1024 ranks at 4 per node: 256 nodes, 512 servers), as each tenant of a
// cluster run does. held_heap_bytes is the heap the deployment holds once
// built (glibc mallinfo2), server-program registration included.
void BM_UniviStorDeploy(benchmark::State& state) {
  workload::ScenarioOptions options;
  options.procs = 1024;
  options.cluster_params = hw::CoriPreset(1024, 4);
  options.cluster_params.node.cores = 8;
  options.cluster_params.node.dram_cache_capacity = 32_MiB;
  options.cluster_params.bb.bb_nodes = 2;
  options.cluster_params.bb.capacity_per_bb_node = 64_MiB;
  options.cluster_params.pfs.osts = 4;
  univistor::Config config;
  config.chunk_size = 1_MiB;
  std::size_t held = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto scenario = std::make_unique<workload::Scenario>(options);
    const std::size_t before = mallinfo2().uordblks;
    state.ResumeTiming();
    auto system = std::make_unique<univistor::UniviStor>(scenario->runtime(), scenario->pfs(),
                                                         scenario->workflow(), config);
    state.PauseTiming();
    held = mallinfo2().uordblks - before;
    state.ResumeTiming();
    system.reset();
    state.PauseTiming();
    scenario.reset();
    state.ResumeTiming();
  }
  state.counters["held_heap_bytes"] = static_cast<double>(held);
}
BENCHMARK(BM_UniviStorDeploy)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace uvs

BENCHMARK_MAIN();

// Golden regressions for the paper's headline figures, scaled down to one
// sweep point (64 procs, 16 MiB/proc) so they run in CI. These pin the
// *ordering* each figure reports — the qualitative claims of §III — not
// absolute rates, so hardware-model retuning only fails them if it flips a
// paper-reported comparison:
//   Fig 5a: IA+COC write rate beats the noIA and noCOC ablations.
//   Fig 6a: UVS/DRAM > UVS/BB > Data Elevator > Lustre write rate.
//   Fig 6c: UniviStor flushes to Lustre faster than Data Elevator.
#include <gtest/gtest.h>

#include "bench/bench_common.hpp"
#include "src/cluster/arrival.hpp"
#include "src/cluster/simulation.hpp"
#include "src/workload/scenario.hpp"

namespace uvs {
namespace {

using bench::MakeDataElevator;
using bench::MakeLustre;
using bench::MakeUniviStor;
using workload::MicroParams;
using workload::RunHdfMicro;

constexpr int kProcs = 64;
const MicroParams kParams{.bytes_per_proc = 16_MiB, .file_name = "micro.h5"};

double UvsWriteRate(univistor::Config config, bool cfs = false) {
  auto setup = MakeUniviStor(kProcs, config, cfs);
  const auto t = RunHdfMicro(*setup.scenario, setup.app, *setup.system.driver, kParams);
  return t.rate();
}

TEST(GoldenFig5a, IaAndCocBeatTheirAblations) {
  const double both = UvsWriteRate(univistor::Config{});

  univistor::Config no_ia;
  no_ia.interference_aware_flush = false;
  const double without_ia = UvsWriteRate(no_ia, /*cfs=*/true);

  univistor::Config no_coc;
  no_coc.collective_open_close = false;
  const double without_coc = UvsWriteRate(no_coc);

  EXPECT_GT(both, without_ia) << "IA placement must help (paper: 1.45-2.5x)";
  EXPECT_GT(both, without_coc) << "collective open/close must help (paper: 1.1-3.5x)";
}

TEST(GoldenFig6a, WriteRateOrderingHolds) {
  const double dram = UvsWriteRate(univistor::Config{});

  univistor::Config bb_config;
  bb_config.first_cache_layer = hw::Layer::kSharedBurstBuffer;
  const double bb = UvsWriteRate(bb_config);

  auto de_setup = MakeDataElevator(kProcs);
  const double de =
      RunHdfMicro(*de_setup.scenario, de_setup.app, *de_setup.system.driver, kParams).rate();

  auto lustre_setup = MakeLustre(kProcs);
  const double lustre =
      RunHdfMicro(*lustre_setup.scenario, lustre_setup.app, *lustre_setup.system.driver, kParams)
          .rate();

  EXPECT_GT(dram, bb) << "DRAM tier outruns the burst buffer";
  EXPECT_GT(bb, de) << "paper: BB beats Data Elevator by 1.2-1.7x";
  EXPECT_GT(de, lustre) << "both hierarchical systems beat raw Lustre";
  EXPECT_GT(dram, 2.0 * de) << "paper: DRAM beats Data Elevator by 3.7-5.6x";
}

TEST(GoldenFig6c, UnivistorFlushesFasterThanDataElevator) {
  const auto uvs_flush = [](hw::Layer first_layer) {
    univistor::Config config;
    config.first_cache_layer = first_layer;
    auto setup = MakeUniviStor(kProcs, config);
    RunHdfMicro(*setup.scenario, setup.app, *setup.system.driver, kParams);
    const auto& stats = setup.system.univistor->flush_stats();
    EXPECT_GT(stats.last_flush_duration, 0.0);
    return static_cast<double>(stats.bytes_flushed) / stats.last_flush_duration;
  };
  const double dram = uvs_flush(hw::Layer::kDram);
  const double bb = uvs_flush(hw::Layer::kSharedBurstBuffer);

  auto de_setup = MakeDataElevator(kProcs);
  RunHdfMicro(*de_setup.scenario, de_setup.app, *de_setup.system.driver, kParams);
  const auto& de_stats = de_setup.system.data_elevator->flush_stats();
  ASSERT_GT(de_stats.last_flush_duration, 0.0);
  const double de = static_cast<double>(de_stats.bytes_flushed) / de_stats.last_flush_duration;

  EXPECT_GT(dram, de) << "paper: 1.8-2.5x";
  EXPECT_GT(bb, de) << "paper: 1.6-2.5x";
}

// ---------------------------------------------------------------------------
// Erasure-coded variants: k+m striping on the PFS adds parity write
// amplification to every flush, but it must not flip any paper-reported
// ordering. These pin the same comparisons as the figures above with
// config.ec enabled (4+2, the default grid point).

univistor::Config WithEc(univistor::Config config = {}) {
  config.ec.enabled = true;
  return config;
}

TEST(GoldenFig5aEc, IaAndCocStillBeatTheirAblationsUnderErasureCoding) {
  const double both = UvsWriteRate(WithEc());

  univistor::Config no_ia = WithEc();
  no_ia.interference_aware_flush = false;
  const double without_ia = UvsWriteRate(no_ia, /*cfs=*/true);

  univistor::Config no_coc = WithEc();
  no_coc.collective_open_close = false;
  const double without_coc = UvsWriteRate(no_coc);

  EXPECT_GT(both, without_ia) << "IA placement must still help with parity";
  EXPECT_GT(both, without_coc) << "collective open/close must still help with parity";
}

TEST(GoldenFig6aEc, WriteRateOrderingSurvivesErasureCoding) {
  const double dram = UvsWriteRate(WithEc());

  univistor::Config bb_config = WithEc();
  bb_config.first_cache_layer = hw::Layer::kSharedBurstBuffer;
  const double bb = UvsWriteRate(bb_config);

  auto de_setup = MakeDataElevator(kProcs);
  const double de =
      RunHdfMicro(*de_setup.scenario, de_setup.app, *de_setup.system.driver, kParams).rate();

  auto lustre_setup = MakeLustre(kProcs);
  const double lustre =
      RunHdfMicro(*lustre_setup.scenario, lustre_setup.app, *lustre_setup.system.driver, kParams)
          .rate();

  EXPECT_GT(dram, bb) << "DRAM tier outruns the burst buffer with EC on";
  EXPECT_GT(bb, de) << "EC-striped UVS/BB still beats (non-EC) Data Elevator";
  EXPECT_GT(de, lustre) << "both hierarchical systems beat raw Lustre";
}

TEST(GoldenFig6cEc, UnivistorStillFlushesFasterThanDataElevator) {
  const auto uvs_flush = [](hw::Layer first_layer) {
    univistor::Config config = WithEc();
    config.first_cache_layer = first_layer;
    auto setup = MakeUniviStor(kProcs, config);
    RunHdfMicro(*setup.scenario, setup.app, *setup.system.driver, kParams);
    const auto& stats = setup.system.univistor->flush_stats();
    EXPECT_GT(stats.last_flush_duration, 0.0);
    return static_cast<double>(stats.bytes_flushed) / stats.last_flush_duration;
  };
  const double dram = uvs_flush(hw::Layer::kDram);

  auto de_setup = MakeDataElevator(kProcs);
  RunHdfMicro(*de_setup.scenario, de_setup.app, *de_setup.system.driver, kParams);
  const auto& de_stats = de_setup.system.data_elevator->flush_stats();
  ASSERT_GT(de_stats.last_flush_duration, 0.0);
  const double de = static_cast<double>(de_stats.bytes_flushed) / de_stats.last_flush_duration;

  // The (k+m)/k parity amplification eats into the paper's 1.8-2.5x DRAM
  // margin but must not erase it.
  EXPECT_GT(dram, de) << "EC-striped flush must still beat Data Elevator";
}

// ---------------------------------------------------------------------------
// Cluster QoS pin with EC tenants: half the UniviStor jobs in the BB-bound
// reference mix flush to erasure-coded files, and the BB-aware policy must
// stay at least as good as FCFS on mean stretch.

TEST(GoldenClusterQosEc, BbAwareBeatsFcfsWithErasureCodedJobs) {
  hw::ClusterParams params = hw::CoriPreset(32, 4);
  params.node.cores = 8;
  params.node.dram_cache_capacity = 32_MiB;
  params.bb.bb_nodes = 2;
  params.bb.capacity_per_bb_node = 128_MiB;
  params.pfs.osts = 8;  // room for the default 4+2 stripe
  params.seed = 42;
  workload::ScenarioOptions scenario_options;
  scenario_options.procs = 32;
  scenario_options.policy = sched::PlacementPolicy::kInterferenceAware;
  scenario_options.cluster_params = params;

  cluster::MixParams mix;
  mix.jobs = 12;
  mix.bb_bound = true;
  mix.ec_fraction = 0.5;

  const auto run = [&](cluster::Policy policy) {
    workload::Scenario scenario(scenario_options);
    cluster::ClusterOptions options;
    options.policy = policy;
    options.procs_per_node = 4;
    options.base_config.chunk_size = 1_MiB;
    cluster::ClusterSim sim(scenario, cluster::SampleJobMix(3, mix), options);
    sim.Run();
    return sim.summary();
  };
  const cluster::QosSummary f = run(cluster::Policy::kFcfs);
  const cluster::QosSummary b = run(cluster::Policy::kBbAware);
  EXPECT_EQ(f.completed, 12);
  EXPECT_EQ(b.completed, 12);
  EXPECT_LE(b.mean_stretch, f.mean_stretch)
      << "BB-aware must stay at least as good as FCFS with EC tenants";
}

}  // namespace
}  // namespace uvs

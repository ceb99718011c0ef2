#include "src/hw/probes.hpp"

#include <algorithm>

#include "src/hw/utilization.hpp"

namespace uvs::hw {

void RegisterClusterGauges(obs::Sampler& sampler, Cluster& cluster) {
  sampler.AddSource([&cluster] {
    const UtilizationReport report = CollectUtilization(cluster);
    auto publish = [](const char* bytes_name, const char* busy_name, const char* util_name,
                      const DeviceClassUsage& usage) {
      obs::SetGauge(bytes_name, static_cast<double>(usage.total_bytes));
      obs::SetGauge(busy_name, usage.busy_time);
      obs::SetGauge(util_name, usage.Utilization());
    };
    publish("hw.nic_tx.bytes", "hw.nic_tx.busy_seconds", "hw.nic_tx.utilization",
            report.nic_tx);
    publish("hw.nic_rx.bytes", "hw.nic_rx.busy_seconds", "hw.nic_rx.utilization",
            report.nic_rx);
    publish("hw.dram.bytes", "hw.dram.busy_seconds", "hw.dram.utilization", report.dram);
    publish("hw.bb.bytes", "hw.bb.busy_seconds", "hw.bb.utilization", report.bb);
    publish("hw.ost.bytes", "hw.ost.busy_seconds", "hw.ost.utilization", report.ost);

    // Instantaneous queue depths: how many flows each device class is
    // serving right now (the PFS-contention signal in §II-D).
    std::size_t ost_flows = 0, ost_peak = 0;
    for (int o = 0; o < cluster.pfs().size(); ++o) {
      const std::size_t flows = cluster.pfs().pool(o).active_flows();
      ost_flows += flows;
      ost_peak = std::max(ost_peak, flows);
    }
    obs::SetGauge("hw.ost.active_flows", static_cast<double>(ost_flows));
    obs::SetGauge("hw.ost.max_queue_depth", static_cast<double>(ost_peak));
    std::size_t bb_flows = 0;
    for (int b = 0; b < cluster.burst_buffer().size(); ++b)
      bb_flows += cluster.burst_buffer().pool(b).active_flows();
    obs::SetGauge("hw.bb.active_flows", static_cast<double>(bb_flows));
  });
}

}  // namespace uvs::hw

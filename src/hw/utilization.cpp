#include "src/hw/utilization.hpp"

#include <sstream>

#include "src/common/strings.hpp"

namespace uvs::hw {

namespace {
void Accumulate(DeviceClassUsage& usage, sim::FairSharePool& pool, Time elapsed) {
  usage.total_bytes += pool.total_bytes();
  usage.busy_time += pool.busy_time();
  usage.devices += 1;
  usage.peak_possible_bytes += pool.capacity() * elapsed;
}
}  // namespace

UtilizationReport CollectUtilization(Cluster& cluster) {
  UtilizationReport report;
  report.elapsed = cluster.engine().Now();
  for (int n = 0; n < cluster.node_count(); ++n) {
    Node& node = cluster.node(n);
    Accumulate(report.nic_tx, node.nic_tx(), report.elapsed);
    Accumulate(report.nic_rx, node.nic_rx(), report.elapsed);
    for (int s = 0; s < node.sockets(); ++s)
      Accumulate(report.dram, node.socket(s).dram(), report.elapsed);
  }
  for (int b = 0; b < cluster.burst_buffer().size(); ++b)
    Accumulate(report.bb, cluster.burst_buffer().pool(b), report.elapsed);
  for (int o = 0; o < cluster.pfs().size(); ++o)
    Accumulate(report.ost, cluster.pfs().pool(o), report.elapsed);
  return report;
}

std::string UtilizationReport::ToString() const {
  std::ostringstream os;
  auto line = [&](const char* name, const DeviceClassUsage& usage) {
    os << "  " << name << ": " << HumanBytes(usage.total_bytes) << " over " << usage.devices
       << " devices, utilization " << FormatDouble(usage.Utilization() * 100, 1)
       << "%, busy " << HumanTime(usage.busy_time) << "\n";
  };
  os << "device utilization over " << HumanTime(elapsed) << ":\n";
  line("nic_tx", nic_tx);
  line("nic_rx", nic_rx);
  line("dram  ", dram);
  line("bb    ", bb);
  line("ost   ", ost);
  return os.str();
}

}  // namespace uvs::hw

#include "src/obs/metrics.hpp"

namespace uvs::obs {

namespace {

template <class Metric>
Metric& Get(MetricsRegistry::Map<Metric>& map, std::string_view name) {
  auto it = map.lower_bound(name);
  if (it == map.end() || it->first != name) it = map.try_emplace(it, std::string(name));
  return it->second;
}

}  // namespace

Counter& MetricsRegistry::GetCounter(std::string_view name) { return Get(counters_, name); }
Gauge& MetricsRegistry::GetGauge(std::string_view name) { return Get(gauges_, name); }
Distribution& MetricsRegistry::GetDistribution(std::string_view name) {
  return Get(distributions_, name);
}

}  // namespace uvs::obs

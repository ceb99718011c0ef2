#include "src/cluster/job.hpp"

#include <algorithm>
#include <cmath>

namespace uvs::cluster {

const char* JobKindName(JobKind kind) {
  switch (kind) {
    case JobKind::kMicroWrite: return "micro";
    case JobKind::kMicroReadBack: return "micro_read";
    case JobKind::kVpic: return "vpic";
  }
  return "?";
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  auto idx = static_cast<std::size_t>(std::ceil(rank));
  idx = std::clamp<std::size_t>(idx, 1, values.size()) - 1;
  return values[idx];
}

QosSummary Summarize(const std::vector<JobQos>& qos) {
  QosSummary s;
  s.jobs = static_cast<int>(qos.size());
  std::vector<double> stretches;
  std::vector<double> waits;
  for (const JobQos& j : qos) {
    if (!j.completed()) continue;
    ++s.completed;
    stretches.push_back(j.stretch());
    waits.push_back(j.wait());
    s.total_drain_interference += j.drain_interference;
  }
  if (s.completed == 0) return s;
  for (double v : stretches) s.mean_stretch += v;
  s.mean_stretch /= static_cast<double>(stretches.size());
  for (double v : waits) s.mean_wait += v;
  s.mean_wait /= static_cast<double>(waits.size());
  s.p50_stretch = Quantile(stretches, 0.5);
  s.p99_stretch = Quantile(stretches, 0.99);
  s.p99_wait = Quantile(waits, 0.99);
  return s;
}

}  // namespace uvs::cluster

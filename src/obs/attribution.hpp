// obs::attribution — causal critical-path and wait-state analysis over the
// span recorder. Pure post-processing: consumes Recorder::ForEachSpan()/links()
// after a run and never touches the simulation, so enabling it cannot
// perturb timing. See docs/OBSERVABILITY.md for the attribution model.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "src/obs/recorder.hpp"

namespace uvs::obs {

/// One launched program, as the analysis should label it. Built from the
/// vmpi runtime by the caller (obs cannot depend on vmpi).
struct JobSpec {
  int program = 0;
  std::string name;
  bool is_server = false;
  int ranks = 0;
};

/// Wall time of one rank decomposed into categories. The decomposition is
/// an exact partition of the rank's active window, so the category seconds
/// sum to elapsed() up to floating-point rounding.
struct RankBreakdown {
  int rank = 0;
  Time window_start = 0;  // first span start on the rank's track
  Time window_end = 0;    // last span end on the rank's track
  std::array<double, kCategoryCount> seconds{};

  Time elapsed() const { return window_end - window_start; }
  double attributed() const;  // sum over seconds[]
};

struct JobBreakdown {
  JobSpec spec;
  std::array<double, kCategoryCount> seconds{};  // summed over ranks
  Time window_start = 0;                         // min over ranks
  Time window_end = 0;                           // max over ranks
  std::vector<RankBreakdown> ranks;

  Time elapsed() const { return window_end - window_start; }
};

/// One blamed segment on the critical path, innermost span after causal
/// descent (a device access, a tagged leg, or a compute gap).
struct PathSegment {
  Time start = 0;
  Time end = 0;
  std::string name;  // span name, or "compute" for gaps
  Category category = Category::kNone;
  std::string where;  // track label, e.g. "node 0 / app/12" or "ost 3"

  Time duration() const { return end - start; }
};

/// USE-method rollup for one device (OST, BB node, or metadata server),
/// read from the device's own counters (workload::AnalyzeRun), never from
/// spans, so it does not depend on the span cap.
struct DeviceUse {
  std::string device;      // "ost3", "bb0", "md1"
  double utilization = 0;  // busy / run elapsed
  double saturation = 0;   // queue-depth-seconds: ∫ max(0, inflight-1) dt
  int errors = 0;          // degradation windows opened
  Time busy = 0;           // seconds the device was serving
  Time degraded = 0;       // total degraded-window seconds
};

struct Report {
  Time elapsed = 0;  // whole-run wall clock the analysis was given
  std::vector<JobBreakdown> jobs;

  // Critical path of the slowest non-server job (its slowest rank).
  std::string critical_job;
  int critical_rank = -1;
  Time critical_elapsed = 0;
  std::vector<PathSegment> critical_path;

  std::vector<DeviceUse> devices;  // filled by the caller; Analyze leaves it empty
};

/// Reconstructs the dependency DAG from the spans and links() and produces the
/// per-rank/per-job attribution and the critical path.
/// Deterministic: identical recorders yield identical reports.
Report Analyze(const Recorder& recorder, const std::vector<JobSpec>& jobs, Time elapsed);

/// Human-readable tables (attribution, critical path, device USE).
std::string ToText(const Report& report);

/// The "attribution" object embedded in the metrics run report
/// (schema univistor.attribution.v1).
std::string AttributionJson(const Report& report);

}  // namespace uvs::obs

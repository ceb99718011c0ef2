// uvreport — render and diff UniviStor metrics run reports.
//
//   uvreport report.json                      pretty-print the report
//   uvreport --diff old.json new.json         flag meaningful shifts
//
// Understands univistor.metrics.v2 and .v3 reports; v3 adds telemetry
// (quantile-sketch headline) and slo blocks, rendered as extra sections.
// Diff mode exits 0 when the reports agree within tolerance, 1 when a
// statistically meaningful shift is found (for CI gating against a golden
// report), and 2 on usage or parse errors. SLO verdict flips are always
// meaningful shifts regardless of tolerance. Tolerances, each a finite
// number >= 0:
//
//   --rel-tol=F      relative change on elapsed / critical path / saturation
//                    (default 0.10)
//   --share-tol=F    absolute change on category shares / utilization
//                    (default 0.02)
//   --min-seconds=F  ignore categories smaller than this in both reports
//                    (default 0.05)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/parse.hpp"
#include "src/obs/report.hpp"

using namespace uvs;

namespace {

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: uvreport [--rel-tol=F] [--share-tol=F] [--min-seconds=F] "
               "report.json\n"
               "       uvreport --diff [tolerance flags] old.json new.json\n");
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "uvreport: %s\n", what.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool diff = false;
  obs::DiffOptions options;
  std::vector<std::string> files;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--diff") == 0) diff = true;
    else if (ParseFlag(arg, "--rel-tol", &value))
      options.rel_tol = FlagNumber("uvreport", "--rel-tol", value, 0.0);
    else if (ParseFlag(arg, "--share-tol", &value))
      options.share_tol = FlagNumber("uvreport", "--share-tol", value, 0.0);
    else if (ParseFlag(arg, "--min-seconds", &value))
      options.min_seconds = FlagNumber("uvreport", "--min-seconds", value, 0.0);
    else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      PrintUsage(stdout);
      return 0;
    } else if (arg[0] == '-') {
      PrintUsage(stderr);
      return Fail(std::string("unknown flag: ") + arg);
    } else {
      files.push_back(arg);
    }
  }

  if (!diff) {
    if (files.size() != 1) {
      PrintUsage(stderr);
      return 2;
    }
    auto report = obs::LoadRunReportFile(files[0]);
    if (!report.ok()) return Fail(files[0] + ": " + report.status().ToString());
    std::printf("%s", obs::RenderReport(*report).c_str());
    return 0;
  }

  if (files.size() != 2) {
    PrintUsage(stderr);
    return 2;
  }
  auto before = obs::LoadRunReportFile(files[0]);
  if (!before.ok()) return Fail(files[0] + ": " + before.status().ToString());
  auto after = obs::LoadRunReportFile(files[1]);
  if (!after.ok()) return Fail(files[1] + ": " + after.status().ToString());

  const std::vector<std::string> shifts = obs::DiffReports(*before, *after, options);
  if (shifts.empty()) {
    std::printf("uvreport: no meaningful shifts (%s vs %s)\n", files[0].c_str(),
                files[1].c_str());
    return 0;
  }
  std::printf("uvreport: %zu meaningful shift(s):\n", shifts.size());
  for (const std::string& shift : shifts) std::printf("  %s\n", shift.c_str());
  return 1;
}

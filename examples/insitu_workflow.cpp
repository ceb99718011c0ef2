// In-situ analysis workflow: a VPIC-IO producer and a BD-CATS-IO consumer
// coupled through UniviStor's lightweight workflow management (§II-E).
//
//   $ ./build/examples/insitu_workflow
//
// Both programs run in the same job. With ENABLE_WORKFLOW semantics on,
// the consumer's collective open of each time-step file blocks until the
// producer's close releases the write lock — so the analysis runs
// *during* the simulation (overlap) without ever reading a half-written
// file. The example runs the same workflow in overlap and nonoverlap
// modes and prints the speedup.
#include <cstdio>

#include "src/common/strings.hpp"
#include "src/workload/deployment.hpp"
#include "src/workload/scenario.hpp"

using namespace uvs;

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what);
    ++g_failures;
  }
}

Time RunMode(bool overlap) {
  constexpr int kProcs = 128;  // half to the producer, half to the analysis
  workload::Scenario scenario(
      workload::ScenarioOptions{.procs = kProcs, .workflow_enabled = true});
  const workload::SystemUnderTest sut =
      workload::BuildSystem(scenario, workload::SystemKind::kUniviStor, univistor::Config{});

  const auto producer = scenario.runtime().LaunchProgram("vpic", kProcs / 2);
  const auto consumer = scenario.runtime().LaunchProgram("bdcats", kProcs / 2);

  const workload::VpicParams params{.steps = 5,
                                    .vars = 8,
                                    .bytes_per_var = 32_MiB,
                                    .compute_time = 0.0,
                                    .file_prefix = "insitu"};
  // Overlap blocks BD-CATS on the workflow locks, not on stale data.
  const workload::WorkflowResult run =
      workload::RunWorkflow(scenario, *sut.driver, producer, consumer, params, overlap);

  std::printf("  %-10s producer writes %s, consumer reads %s, elapsed %s\n",
              overlap ? "overlap:" : "nonoverlap:", HumanTime(run.producer.write_time).c_str(),
              HumanTime(run.consumer.read_time).c_str(), HumanTime(run.elapsed).c_str());
  Check(run.producer.write_time > 0, "producer wrote data");
  Check(run.consumer.read_time > 0, "consumer read data");
  Check(run.consumer.bytes == run.producer.bytes, "consumer read back every produced byte");
  return run.elapsed;
}

}  // namespace

int main() {
  std::printf("In-situ workflow: 5-step VPIC-IO producer + BD-CATS-IO consumer\n");
  const Time overlap = RunMode(true);
  const Time nonoverlap = RunMode(false);
  std::printf("\nworkflow-managed overlap speedup: %.2fx\n", nonoverlap / overlap);
  Check(overlap > 0, "overlap mode finished in nonzero simulated time");
  Check(overlap <= nonoverlap, "overlapping the analysis is never slower");
  return g_failures == 0 ? 0 : 1;
}

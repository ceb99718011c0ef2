// Benchmark-side vmpi::AdioDriver decorator used by the traced run.
//
// It forwards every verb to the system's own driver and records, in the
// order the verbs were issued: file, program, rank, node, offset, length,
// simulated start and end (Engine::Now()) and outcome. sim::Task resumes
// awaited children by symmetric transfer, so the wrapper adds no engine
// events and the run's simulated outputs stay exactly those of an
// undecorated run. The decorator's own heap allocations (its coroutine
// frames and log) are tallied separately so the traced run can report the
// program's allocation count unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/alloc_counter.hpp"
#include "src/sim/engine.hpp"
#include "src/vmpi/file.hpp"

namespace perfbench {

enum class Verb : std::uint8_t { kOpen, kWrite, kRead, kClose };

struct DriverCall {
  Verb verb = Verb::kOpen;
  bool ok = false;  // the verb returned normally (false until it ends)
  int file = 0;     // index into TraceDriver::files(), in first-seen order
  int program = 0;
  int rank = 0;
  int node = 0;
  uvs::Bytes offset = 0;
  uvs::Bytes len = 0;
  uvs::Time start = 0;  // simulated
  uvs::Time end = -1;   // simulated; -1 while in flight
};

class TraceDriver : public uvs::vmpi::AdioDriver {
 public:
  /// `expected_calls` sizes the log up front so it never reallocates
  /// while the simulation runs.
  TraceDriver(uvs::vmpi::AdioDriver& inner, uvs::sim::Engine& engine,
              std::size_t expected_calls);
  // Files and in-flight coroutine frames hold this object's address.
  TraceDriver(const TraceDriver&) = delete;
  TraceDriver& operator=(const TraceDriver&) = delete;

  const char* fs_type() const override { return inner_->fs_type(); }
  uvs::sim::Task Open(uvs::vmpi::File& file, int rank, uvs::obs::SpanRef op) override;
  uvs::sim::Task WriteAt(uvs::vmpi::File& file, int rank, uvs::Bytes offset, uvs::Bytes len,
                         uvs::obs::SpanRef op) override;
  uvs::sim::Task ReadAt(uvs::vmpi::File& file, int rank, uvs::Bytes offset, uvs::Bytes len,
                        uvs::obs::SpanRef op) override;
  uvs::sim::Task Close(uvs::vmpi::File& file, int rank, uvs::obs::SpanRef op) override;
  uvs::sim::Task WaitFlush(uvs::vmpi::File& file) override { return inner_->WaitFlush(file); }

  const std::vector<DriverCall>& calls() const { return calls_; }
  const std::vector<std::string>& files() const { return files_; }
  /// Allocations made by the decorator's verbs (frames, log, file table);
  /// the caller accounts for constructing the decorator itself.
  const alloc::Snapshot& own_allocs() const { return own_allocs_; }

 private:
  uvs::sim::Task Log(Verb verb, uvs::vmpi::File& file, int rank, uvs::Bytes offset,
                     uvs::Bytes len, uvs::sim::Task inner);
  uvs::sim::Task Observe(std::size_t slot, uvs::sim::Task inner);

  uvs::vmpi::AdioDriver* inner_;
  uvs::sim::Engine* engine_;
  std::vector<DriverCall> calls_;
  std::vector<std::string> files_;
  std::unordered_map<std::string, int> file_index_;
  alloc::Snapshot own_allocs_;
};

}  // namespace perfbench

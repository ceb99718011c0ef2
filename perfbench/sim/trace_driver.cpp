#include "sim/trace_driver.hpp"

#include <utility>

namespace perfbench {

using uvs::Bytes;
using uvs::sim::Task;

TraceDriver::TraceDriver(uvs::vmpi::AdioDriver& inner, uvs::sim::Engine& engine,
                         std::size_t expected_calls)
    : inner_(&inner), engine_(&engine) {
  calls_.reserve(expected_calls);
}

Task TraceDriver::Open(uvs::vmpi::File& file, int rank, uvs::obs::SpanRef op) {
  return Log(Verb::kOpen, file, rank, 0, 0, inner_->Open(file, rank, op));
}

Task TraceDriver::WriteAt(uvs::vmpi::File& file, int rank, Bytes offset, Bytes len,
                          uvs::obs::SpanRef op) {
  return Log(Verb::kWrite, file, rank, offset, len,
             inner_->WriteAt(file, rank, offset, len, op));
}

Task TraceDriver::ReadAt(uvs::vmpi::File& file, int rank, Bytes offset, Bytes len,
                         uvs::obs::SpanRef op) {
  return Log(Verb::kRead, file, rank, offset, len, inner_->ReadAt(file, rank, offset, len, op));
}

Task TraceDriver::Close(uvs::vmpi::File& file, int rank, uvs::obs::SpanRef op) {
  return Log(Verb::kClose, file, rank, 0, 0, inner_->Close(file, rank, op));
}

// `inner` is created by the caller before this runs, so only the
// decorator's own work falls between the two snapshots: the file table,
// the log slot and the Observe frame (coroutines start suspended).
Task TraceDriver::Log(Verb verb, uvs::vmpi::File& file, int rank, Bytes offset, Bytes len,
                      Task inner) {
  const alloc::Snapshot before = alloc::Now();
  const auto [it, fresh] =
      file_index_.try_emplace(file.options().name, static_cast<int>(files_.size()));
  if (fresh) files_.push_back(file.options().name);
  const int program = file.program();
  calls_.push_back(DriverCall{.verb = verb,
                              .file = it->second,
                              .program = program,
                              .rank = rank,
                              .node = file.runtime().Rank(program, rank).node,
                              .offset = offset,
                              .len = len});
  Task outer = Observe(calls_.size() - 1, std::move(inner));
  own_allocs_ += alloc::Now() - before;
  return outer;
}

Task TraceDriver::Observe(std::size_t slot, Task inner) {
  calls_[slot].start = engine_->Now();
  try {
    co_await inner;
  } catch (...) {
    calls_[slot].end = engine_->Now();
    throw;
  }
  calls_[slot].end = engine_->Now();
  calls_[slot].ok = true;
}

}  // namespace perfbench

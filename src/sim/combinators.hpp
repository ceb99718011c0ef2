// Task combinators.
#pragma once

#include <vector>

#include "src/common/units.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/fair_share.hpp"
#include "src/sim/task.hpp"

namespace uvs::sim {

/// Starts every task concurrently and completes when all have finished.
/// `co_await WhenAll(engine, std::move(tasks));`
inline Task WhenAll(Engine& engine, std::vector<Task> tasks) {
  std::vector<Process> procs;
  procs.reserve(tasks.size());
  for (auto& task : tasks) procs.push_back(engine.Spawn(std::move(task)));
  for (auto& proc : procs) co_await proc.Done().Wait();
}

/// A transfer through one pool as a task of its own, to run as one leg of
/// a fan-out: `legs.push_back(Transfer(nic, bytes));`
inline Task Transfer(FairSharePool& pool, Bytes bytes) { co_await pool.Transfer(bytes); }

}  // namespace uvs::sim

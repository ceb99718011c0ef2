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
///
/// The tasks run as child coroutines of the fan-out, not as processes, yet
/// the engine sees the events a join of spawned processes makes: each leg
/// starts from its own resume event, in leg order, and the fan-out wakes
/// by an event when the leg it waits on (in index order) returns. A leg's
/// escaped exception aborts Engine::Run, as a process's does. An empty
/// (default-constructed) task counts as already finished. Defined in
/// task.cpp, beside the final suspend that ends a leg.
Task WhenAll(Engine& engine, std::vector<Task> tasks);

/// A transfer through one pool as a task of its own, to run as one leg of
/// a fan-out: `legs.push_back(Transfer(nic, bytes));`
inline Task Transfer(FairSharePool& pool, Bytes bytes) { co_await pool.Transfer(bytes); }

}  // namespace uvs::sim

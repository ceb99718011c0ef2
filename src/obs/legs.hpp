// Builds the concurrent legs of one simulated transfer. A leg is one
// device's share of the work: a fair-share pool (CPU, DRAM, NIC), a device
// array access (BB node, OST), a PFS read or write, a network transfer.
// With a recorder installed each leg runs inside a category span on the
// issuing track, tagged with the leg's ideal (solo) time, so the
// attribution pass can split its duration into transfer and contention
// (docs/OBSERVABILITY.md). With no recorder a leg runs bare.
//
//   obs::Legs legs(engine, "univistor", track, parent);
//   legs.Pool("cpu.copy", obs::Category::kNet, cpu, len);
//   legs.Add("bb.write", obs::Category::kBb, bb.SoloTime(i, len), len,
//            bb.Access(i, len, 1.0, parent));
//   co_await legs.Join();
//
// Each leg's arguments are evaluated when it is added, so the order of
// adds is the order of any RNG draws and capacity reads they make.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/units.hpp"
#include "src/obs/recorder.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/fair_share.hpp"
#include "src/sim/task.hpp"

namespace uvs::obs {

class Legs {
 public:
  /// Legs issued from `track`, spanned under `category` (a literal) with
  /// `parent` as their causal parent. Reads obs::Enabled() once, here.
  Legs(sim::Engine& engine, const char* category, Track track, SpanRef parent)
      : engine_(&engine),
        category_(category),
        track_(track),
        parent_(parent),
        traced_(Enabled()) {}

  /// A transfer of `bytes` through `pool`; its ideal is pool.SoloTime(bytes).
  void Pool(const char* name, Category cat, sim::FairSharePool& pool, Bytes bytes);
  /// Any other leg, with its ideal time (0 where none is modelled).
  void Add(const char* name, Category cat, Time ideal, Bytes bytes, sim::Task task) {
    if (legs_.empty()) legs_.reserve(kReservedLegs);
    legs_.push_back(Tag(name, cat, ideal, bytes, std::move(task)));
  }

  /// One leg for the caller to await on its own. Awaiting it is a
  /// symmetric transfer and adds no engine event, where a one-leg Join()
  /// would spawn a process. With no recorder this is `task` itself.
  sim::Task Tag(const char* name, Category cat, Time ideal, Bytes bytes, sim::Task task) const;

  /// Runs the added legs concurrently (sim::WhenAll) and starts a new list.
  sim::Task Join();

 private:
  /// Room the first Add makes: the most legs one UniviStor transfer adds
  /// (a server's flush share), so a list allocates once.
  static constexpr std::size_t kReservedLegs = 5;

  sim::Engine* engine_;
  const char* category_;
  Track track_;
  SpanRef parent_;
  bool traced_;
  std::vector<sim::Task> legs_;
};

}  // namespace uvs::obs

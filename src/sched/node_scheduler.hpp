// Process-to-core placement and CPU-share accounting on one compute node
// (§II-C, Fig. 4 of the paper).
//
// Two policies:
//  * kCfs — models Linux's Completely Fair Scheduler as seen by a highly
//    synchronized parallel job: placement is agnostic of which program a
//    process belongs to (uniform-random core), so processes stack on cores
//    and programs crowd into one NUMA socket by chance.
//  * kInterferenceAware — UniviStor's policy: each program's processes are
//    spread round-robin across NUMA sockets (remainders to the less-loaded
//    socket); under oversubscription extra client processes are placed on
//    cores whose occupants are idle servers (state-aware, Fig. 4d), and are
//    migrated off the server cores while a flush is in progress.
//
// A process stays registered until RemoveProcess retires it (a finished
// job's clients and its storage servers leave with the job); placement,
// CPU shares and flush migration consider registered processes only.
//
// Every registered process owns a CPU pool whose capacity is
//   csw(k) / k * base_bw,  (base_bw: client I/O-stack rate or server copy rate)
// where k is the number of busy processes sharing its core and csw(k) = 0.85
// for k > 1 models context-switch overhead. Memory traffic is gated by
// routing transfers through this pool in parallel with the NUMA socket's
// DRAM pool.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/hw/node.hpp"
#include "src/sim/fair_share.hpp"

namespace uvs::sched {

enum class PlacementPolicy { kCfs, kInterferenceAware };

class NodeScheduler {
 public:
  NodeScheduler(sim::Engine& engine, hw::Node& node, PlacementPolicy policy, Rng rng);

  /// Registers a process of `program` (servers use is_server = true) and
  /// returns its process id on this node. Processes start busy.
  int AddProcess(int program, bool is_server);

  /// Retires `proc`: it leaves its core, whose remaining occupants get
  /// their shares recomputed, and every placement count. Its CPU pool is
  /// checked against its capacity envelope (sim::FairSharePool::Conserves),
  /// then freed; its id is never reused. Throws std::logic_error if `proc`
  /// is not registered (never added, or already retired), its CPU pool
  /// still has a transfer in flight, or the pool served more than its
  /// capacity allows.
  void RemoveProcess(int proc);

  /// Busy processes compete for their core; idle ones (e.g. a server
  /// waiting for the next flush) do not. Throws std::logic_error for a
  /// retired process.
  void SetBusy(int proc, bool busy);
  /// False once retired.
  bool IsBusy(int proc) const;

  /// True from AddProcess until RemoveProcess.
  bool IsRegistered(int proc) const;
  /// -1 once retired.
  int CoreOf(int proc) const;
  /// Throws std::logic_error for a retired process.
  int SocketOf(int proc) const;
  bool IsServer(int proc) const;
  /// Process ids ever issued, retired ones included: ids run 0..count-1.
  int process_count() const { return static_cast<int>(procs_.size()); }
  /// Processes registered now.
  int live_process_count() const { return static_cast<int>(live_.size()); }

  /// CPU share granted to `proc` right now (csw(k)/k if busy; 1 if idle
  /// or retired).
  double CpuShare(int proc) const;

  /// Per-process CPU pool capping its memory/copy injection rate. Throws
  /// std::logic_error for a retired process, whose pool is gone.
  sim::FairSharePool& cpu(int proc);

  /// The DRAM pool of the NUMA socket the process runs on (SocketOf).
  sim::FairSharePool& dram(int proc);

  /// Interference-aware flush protocol: move client processes off cores
  /// hosting servers for the duration of the flush, then restore them.
  /// Flushes nest (every tenant's flush brackets all nodes): the first
  /// Begin migrates, later ones only count, and clients return home when
  /// the last open flush ends. An End with no flush open is ignored.
  /// Migration is a no-op under kCfs or when no client shares a server
  /// core.
  void BeginServerFlush();
  void EndServerFlush();
  bool flush_in_progress() const { return open_flushes_ > 0; }

  // Introspection for tests.
  int ProcsOnCore(int core) const;
  int BusyProcsOnCore(int core) const;
  int ProcsOnSocket(int socket) const;
  int ProgramProcsOnSocket(int program, int socket) const;

 private:
  struct Proc {
    int id;
    int program;
    bool server;
    bool busy = true;
    int core = -1;       // -1 once retired
    int home_core = -1;  // original core, restored after flush migration
    Bandwidth base_bw = 0;  // full-core rate for this process kind
    std::unique_ptr<sim::FairSharePool> cpu;  // null once retired
  };

  int PickCoreCfs();
  int PickCoreInterferenceAware(int program);
  void Assign(Proc& proc, int core);
  void RecomputeCore(int core);
  /// Throws std::logic_error naming `op` unless `proc` is registered.
  void CheckRegistered(int proc, const char* op) const;

  sim::Engine* engine_;
  hw::Node* node_;
  PlacementPolicy policy_;
  Rng rng_;
  std::vector<Proc> procs_;                   // indexed by id, retired included
  std::vector<int> live_;                     // registered ids, ascending
  std::vector<std::vector<int>> core_procs_;  // core -> registered proc ids
  std::vector<int> core_servers_;             // core -> registered servers on it
  int open_flushes_ = 0;
};

}  // namespace uvs::sched

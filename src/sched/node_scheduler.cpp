#include "src/sched/node_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace uvs::sched {

namespace {
/// Efficiency of a core shared by >= 2 busy processes: csw(k) for k > 1.
constexpr double kContextSwitchPenalty = 0.85;
}  // namespace

NodeScheduler::NodeScheduler(sim::Engine& engine, hw::Node& node, PlacementPolicy policy,
                             Rng rng)
    : engine_(&engine), node_(&node), policy_(policy), rng_(rng) {
  core_procs_.resize(static_cast<std::size_t>(node.cores()));
  core_servers_.assign(static_cast<std::size_t>(node.cores()), 0);
}

int NodeScheduler::AddProcess(int program, bool is_server) {
  const int id = static_cast<int>(procs_.size());
  Proc proc;
  proc.id = id;
  proc.program = program;
  proc.server = is_server;
  proc.base_bw = is_server ? node_->params().per_core_server_copy_bw
                           : node_->params().per_core_client_io_bw;
  proc.cpu = std::make_unique<sim::FairSharePool>(
      *engine_, sim::FairSharePool::Options{
                    .name = "node" + std::to_string(node_->id()) + "/cpu" + std::to_string(id),
                    .capacity = proc.base_bw});
  const int core = policy_ == PlacementPolicy::kCfs
                       ? PickCoreCfs()
                       : PickCoreInterferenceAware(program);
  procs_.push_back(std::move(proc));
  live_.push_back(id);
  if (is_server) ++core_servers_[static_cast<std::size_t>(core)];
  Assign(procs_.back(), core);
  procs_.back().home_core = core;
  return id;
}

void NodeScheduler::CheckRegistered(int proc, const char* op) const {
  if (!IsRegistered(proc))
    throw std::logic_error(std::string("NodeScheduler::") + op + ": process " +
                           std::to_string(proc) + " is not registered on node " +
                           std::to_string(node_->id()));
}

void NodeScheduler::RemoveProcess(int proc) {
  CheckRegistered(proc, "RemoveProcess");
  Proc& p = procs_[static_cast<std::size_t>(proc)];
  auto fault = [&](const std::string& what) {
    return std::logic_error("NodeScheduler::RemoveProcess: process " + std::to_string(proc) +
                            " on node " + std::to_string(node_->id()) + what);
  };
  if (p.cpu->active_flows() != 0)
    throw fault(" has " + std::to_string(p.cpu->active_flows()) + " CPU transfers in flight");
  if (!p.cpu->Conserves()) throw fault(" served more than its CPU pool's capacity allows");
  const int core = p.core;
  auto& occupants = core_procs_[static_cast<std::size_t>(core)];
  occupants.erase(std::find(occupants.begin(), occupants.end(), proc));
  if (p.server) --core_servers_[static_cast<std::size_t>(core)];
  live_.erase(std::lower_bound(live_.begin(), live_.end(), proc));
  p.busy = false;
  p.core = -1;
  p.cpu.reset();
  RecomputeCore(core);
}

int NodeScheduler::PickCoreCfs() {
  // Application-agnostic: CFS balances run-queue lengths but is blind to
  // which program a process belongs to and to NUMA placement. Model it as
  // two-random-choices on load: stacking and socket crowding still happen
  // (Fig. 4a), just not pathologically.
  const auto cores = static_cast<std::uint64_t>(node_->cores());
  int best = static_cast<int>(rng_.NextBelow(cores));
  for (int choice = 0; choice < 2; ++choice) {
    const int candidate = static_cast<int>(rng_.NextBelow(cores));
    if (ProcsOnCore(candidate) < ProcsOnCore(best)) best = candidate;
  }
  return best;
}

int NodeScheduler::PickCoreInterferenceAware(int program) {
  const int sockets = node_->sockets();
  // Candidate sockets: minimal count of this program's processes; among
  // them, the less loaded socket overall (remainder rule, §II-C).
  int best_socket = 0;
  int best_prog_count = std::numeric_limits<int>::max();
  int best_total = std::numeric_limits<int>::max();
  for (int s = 0; s < sockets; ++s) {
    const int prog_count = ProgramProcsOnSocket(program, s);
    const int total = ProcsOnSocket(s);
    if (prog_count < best_prog_count ||
        (prog_count == best_prog_count && total < best_total)) {
      best_socket = s;
      best_prog_count = prog_count;
      best_total = total;
    }
  }
  // Within the socket: least-loaded core; ties prefer cores whose
  // occupants are all servers (idle between flushes — Fig. 4d), then the
  // lowest index.
  const int cores_per_socket = node_->cores() / sockets;
  int best_core = best_socket * cores_per_socket;
  int best_load = std::numeric_limits<int>::max();
  bool best_all_servers = false;
  for (int c = best_socket * cores_per_socket; c < (best_socket + 1) * cores_per_socket; ++c) {
    const int load = ProcsOnCore(c);
    const bool all_servers = load > 0 && core_servers_[static_cast<std::size_t>(c)] == load;
    if (load < best_load || (load == best_load && all_servers && !best_all_servers)) {
      best_core = c;
      best_load = load;
      best_all_servers = all_servers;
    }
  }
  return best_core;
}

void NodeScheduler::Assign(Proc& proc, int core) {
  if (proc.core == core) return;
  if (proc.core >= 0) {
    auto& old_list = core_procs_[static_cast<std::size_t>(proc.core)];
    old_list.erase(std::remove(old_list.begin(), old_list.end(), proc.id), old_list.end());
    const int old_core = proc.core;
    proc.core = core;
    RecomputeCore(old_core);
  } else {
    proc.core = core;
  }
  core_procs_[static_cast<std::size_t>(core)].push_back(proc.id);
  RecomputeCore(core);
}

void NodeScheduler::RecomputeCore(int core) {
  const auto& occupants = core_procs_[static_cast<std::size_t>(core)];
  int busy = 0;
  for (int p : occupants)
    if (procs_[static_cast<std::size_t>(p)].busy) ++busy;
  const double csw = busy > 1 ? kContextSwitchPenalty : 1.0;
  const double busy_share = busy > 0 ? csw / static_cast<double>(busy) : 1.0;
  for (int p : occupants) {
    auto& proc = procs_[static_cast<std::size_t>(p)];
    // Idle processes keep a full-core rate: by convention they SetBusy
    // before transferring, so this value is never load-bearing.
    const double share = proc.busy ? busy_share : 1.0;
    proc.cpu->SetCapacity(share * proc.base_bw);
  }
}

void NodeScheduler::SetBusy(int proc, bool busy) {
  CheckRegistered(proc, "SetBusy");
  Proc& p = procs_[static_cast<std::size_t>(proc)];
  if (p.busy == busy) return;
  p.busy = busy;
  RecomputeCore(p.core);
}

bool NodeScheduler::IsBusy(int proc) const {
  return procs_.at(static_cast<std::size_t>(proc)).busy;
}

bool NodeScheduler::IsRegistered(int proc) const {
  return proc >= 0 && proc < process_count() && procs_[static_cast<std::size_t>(proc)].core >= 0;
}

int NodeScheduler::CoreOf(int proc) const {
  return procs_.at(static_cast<std::size_t>(proc)).core;
}

int NodeScheduler::SocketOf(int proc) const {
  CheckRegistered(proc, "SocketOf");
  return node_->SocketOfCore(procs_[static_cast<std::size_t>(proc)].core);
}

bool NodeScheduler::IsServer(int proc) const {
  return procs_.at(static_cast<std::size_t>(proc)).server;
}

double NodeScheduler::CpuShare(int proc) const {
  const auto& p = procs_.at(static_cast<std::size_t>(proc));
  if (!p.busy) return 1.0;
  const int busy = BusyProcsOnCore(p.core);
  if (busy == 0) return 1.0;
  const double csw = busy > 1 ? kContextSwitchPenalty : 1.0;
  return csw / static_cast<double>(busy);
}

sim::FairSharePool& NodeScheduler::cpu(int proc) {
  CheckRegistered(proc, "cpu");
  return *procs_[static_cast<std::size_t>(proc)].cpu;
}

sim::FairSharePool& NodeScheduler::dram(int proc) {
  return node_->socket(SocketOf(proc)).dram();
}

void NodeScheduler::BeginServerFlush() {
  if (open_flushes_++ > 0) return;
  if (policy_ != PlacementPolicy::kInterferenceAware) return;
  for (int id : live_) {
    Proc& proc = procs_[static_cast<std::size_t>(id)];
    if (proc.server || core_servers_[static_cast<std::size_t>(proc.core)] == 0) continue;
    // Migrate to the least-loaded non-server core (same socket preferred).
    int best = -1;
    int best_load = std::numeric_limits<int>::max();
    const int socket = node_->SocketOfCore(proc.core);
    for (int pass = 0; pass < 2 && best == -1; ++pass) {
      for (int c = 0; c < node_->cores(); ++c) {
        if (core_servers_[static_cast<std::size_t>(c)] > 0) continue;
        if (pass == 0 && node_->SocketOfCore(c) != socket) continue;
        const int load = ProcsOnCore(c);
        if (load < best_load) {
          best = c;
          best_load = load;
        }
      }
      if (best != -1) break;
    }
    if (best != -1) Assign(proc, best);
  }
}

void NodeScheduler::EndServerFlush() {
  if (open_flushes_ == 0 || --open_flushes_ > 0) return;
  if (policy_ != PlacementPolicy::kInterferenceAware) return;
  for (int id : live_) {
    Proc& proc = procs_[static_cast<std::size_t>(id)];
    if (!proc.server && proc.core != proc.home_core) Assign(proc, proc.home_core);
  }
}

int NodeScheduler::ProcsOnCore(int core) const {
  return static_cast<int>(core_procs_.at(static_cast<std::size_t>(core)).size());
}

int NodeScheduler::BusyProcsOnCore(int core) const {
  int busy = 0;
  for (int p : core_procs_.at(static_cast<std::size_t>(core)))
    if (procs_[static_cast<std::size_t>(p)].busy) ++busy;
  return busy;
}

int NodeScheduler::ProcsOnSocket(int socket) const {
  int n = 0;
  for (int id : live_)
    if (node_->SocketOfCore(procs_[static_cast<std::size_t>(id)].core) == socket) ++n;
  return n;
}

int NodeScheduler::ProgramProcsOnSocket(int program, int socket) const {
  int n = 0;
  for (int id : live_) {
    const Proc& proc = procs_[static_cast<std::size_t>(id)];
    if (proc.program == program && node_->SocketOfCore(proc.core) == socket) ++n;
  }
  return n;
}

}  // namespace uvs::sched

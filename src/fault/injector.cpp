#include "src/fault/injector.hpp"

#include <algorithm>

#include "src/obs/recorder.hpp"

namespace uvs::fault {

void Injector::Arm() {
  if (armed_) return;
  armed_ = true;
  // Times already past fire now; the engine never schedules into the past.
  const auto from_now = [this](Time at) { return std::max(at, engine_->Now()); };
  for (const FaultEvent& ev : plan_.events) {
    // The FaultEvent copy in the lambda exceeds the engine's inline-event
    // budget, so these land on the boxed path — fine for a handful of
    // events per run.
    engine_->Schedule(from_now(ev.at), [this, ev] { Apply(ev); });
    if (ev.kind != EventKind::kNodeCrash && ev.duration > 0.0)
      engine_->Schedule(from_now(ev.at + ev.duration), [this, ev] { EndWindow(ev); });
  }
}

void Injector::Apply(const FaultEvent& ev) {
  const Time now = engine_->Now();
  switch (ev.kind) {
    case EventKind::kNodeCrash: {
      if (cluster_ != nullptr && (ev.target < 0 || ev.target >= cluster_->node_count())) break;
      ++stats_.crashes;
      obs::Count("fault.node_crashes");
      obs::FlightNote(now, "fault", "node-crash", static_cast<double>(ev.target));
      for (const auto& handler : crash_handlers_)
        if (handler) handler(ev.target);
      // A node crash is the canonical flight-recorder moment: freeze the
      // ring right after the crash handlers ran, while it still holds the
      // lead-up (what the dead node was doing when it died).
      if (Status s = obs::FlightDump("node-crash"); !s.ok())
        obs::Count("fault.flight_dump_errors");
      break;
    }
    case EventKind::kOstDegrade:
      if (cluster_ == nullptr || ev.target >= cluster_->pfs().size()) break;
      ++stats_.ost_windows;
      obs::FlightNote(now, "fault", "ost-degrade", static_cast<double>(ev.target));
      cluster_->pfs().Degrade(ev.target, ev.factor);
      break;
    case EventKind::kBbStall: {
      if (cluster_ == nullptr) break;
      hw::DeviceArray& bb = cluster_->burst_buffer();
      if (ev.target >= bb.size()) break;
      ++stats_.bb_windows;
      obs::FlightNote(now, "fault", "bb-stall", static_cast<double>(ev.target));
      if (ev.target < 0) {
        for (int i = 0; i < bb.size(); ++i) bb.Degrade(i, ev.factor);
      } else {
        bb.Degrade(ev.target, ev.factor);
      }
      break;
    }
    case EventKind::kTransferTimeout:
      ++stats_.timeout_windows;
      ++active_timeouts_;
      obs::Count("fault.timeout_windows");
      obs::FlightNote(now, "fault", "transfer-timeout", static_cast<double>(ev.target));
      break;
    case EventKind::kOstFail:
      if (cluster_ != nullptr && ev.target >= cluster_->pfs().size()) break;
      ++stats_.ost_failures;
      obs::Count("fault.ost_failures");
      obs::FlightNote(now, "fault", "ost-fail", static_cast<double>(ev.target));
      for (const auto& handler : ost_fail_handlers_)
        if (handler) handler(ev.target);
      break;
    case EventKind::kLatentError:
      if (cluster_ != nullptr && ev.target >= cluster_->pfs().size()) break;
      ++stats_.latent_errors;
      obs::Count("fault.latent_errors");
      obs::FlightNote(now, "fault", "latent-error", static_cast<double>(ev.target));
      for (const auto& handler : latent_handlers_)
        if (handler) handler(ev.target);
      break;
    case EventKind::kScrub:
      ++stats_.scrub_passes;
      obs::Count("fault.scrub_passes");
      obs::FlightNote(now, "fault", "scrub", 0.0);
      for (const auto& handler : scrub_handlers_)
        if (handler) handler();
      break;
  }
}

void Injector::EndWindow(const FaultEvent& ev) {
  switch (ev.kind) {
    case EventKind::kOstDegrade:
      if (cluster_ == nullptr || ev.target >= cluster_->pfs().size()) break;
      cluster_->pfs().Restore(ev.target);
      break;
    case EventKind::kBbStall: {
      if (cluster_ == nullptr) break;
      hw::DeviceArray& bb = cluster_->burst_buffer();
      if (ev.target >= bb.size()) break;
      if (ev.target < 0) {
        for (int i = 0; i < bb.size(); ++i) bb.Restore(i);
      } else {
        bb.Restore(ev.target);
      }
      break;
    }
    case EventKind::kTransferTimeout:
      if (active_timeouts_ > 0) --active_timeouts_;
      break;
    case EventKind::kNodeCrash:
    case EventKind::kOstFail:
    case EventKind::kLatentError:
    case EventKind::kScrub:
      break;
  }
}

}  // namespace uvs::fault

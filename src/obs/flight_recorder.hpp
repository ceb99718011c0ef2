// Crash flight recorder: a fixed-size ring of the most recent notable
// events, dumped to JSON exactly when something goes wrong.
//
// While a FlightRecorder is installed (same thread-local Install()/
// Current() pattern as obs::Recorder), instrumented layers call
// FlightNote() at interesting moments — fault injections, cluster job
// transitions, SLO violations — and the installed obs::Recorder mirrors
// every span it records into the ring. The binding is per thread: each
// concurrent engine run (sim::ParallelFor) gets its own recorder handle —
// bind one with ScopedBind on the worker — so notes from parallel runs
// can never interleave in one ring. The ring costs a few KB regardless of
// run length; nothing is written until Dump(reason) fires, which happens
// when
//   * a testkit invariant fails (testkit::RunScenario),
//   * a fault:: node-crash handler runs (fault::Injector), or
//   * uvsim / uvfuzz exit non-zero.
//
// Noting only observes the simulation (no engine events, no RNG), so runs
// are bit-identical with the flight recorder installed or not.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.hpp"
#include "src/common/units.hpp"

namespace uvs::obs {

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;
  ~FlightRecorder();

  /// The calling thread's flight recorder (nullptr when none is bound).
  static FlightRecorder* Current() { return current_; }
  /// Binds this recorder to the calling thread; at most one per thread.
  void Install();
  void Uninstall();
  /// True when this recorder is the calling thread's binding.
  bool installed() const { return current_ == this; }

  /// RAII per-run binding: installs the recorder on the current thread for
  /// the scope — the idiom for one worker-pool task observing one engine
  /// run without touching any other thread's ring.
  class [[nodiscard]] ScopedBind {
   public:
    explicit ScopedBind(FlightRecorder& recorder) : recorder_(&recorder) {
      recorder_->Install();
    }
    ScopedBind(const ScopedBind&) = delete;
    ScopedBind& operator=(const ScopedBind&) = delete;
    ~ScopedBind() { recorder_->Uninstall(); }

   private:
    FlightRecorder* recorder_;
  };

  /// Where Dump() writes; empty (the default) makes Dump a no-op so tests
  /// can install a recorder without scattering files.
  void SetDumpPath(std::string path) { dump_path_ = std::move(path); }
  const std::string& dump_path() const { return dump_path_; }

  /// Records one event at sim time `t`. `kind` must be a static string
  /// ("fault", "span", "slo", ...); `what` and `detail` are copied.
  void Note(Time t, const char* kind, std::string_view what, double value = 0.0,
            std::string_view detail = {});

  /// The ring as JSON (schema univistor.flight.v1), entries oldest first.
  std::string ToJson(const std::string& reason) const;
  /// Writes ToJson(reason) to dump_path(); no-op without a path.
  Status Dump(const std::string& reason);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return std::min<std::size_t>(noted_, capacity_); }
  std::uint64_t total_noted() const { return noted_; }
  std::uint64_t dumps() const { return dumps_; }
  const std::string& last_reason() const { return last_reason_; }

 private:
  struct Entry {
    Time t = 0;
    const char* kind = "";
    std::string what;
    double value = 0;
    std::string detail;
  };

  static inline thread_local FlightRecorder* current_ = nullptr;

  std::size_t capacity_;
  std::vector<Entry> ring_;   // slot i of the ring; reused in place
  std::size_t next_ = 0;      // next slot to overwrite
  std::uint64_t noted_ = 0;
  std::string dump_path_;
  std::uint64_t dumps_ = 0;
  std::string last_reason_;
};

/// Convenience note against the installed flight recorder; a single
/// pointer test when none is installed.
inline void FlightNote(Time t, const char* kind, std::string_view what, double value = 0.0,
                       std::string_view detail = {}) {
  if (FlightRecorder* fr = FlightRecorder::Current()) fr->Note(t, kind, what, value, detail);
}

/// Dumps the installed flight recorder (no-op when none is installed or
/// no dump path is set). Errors are returned, never thrown.
inline Status FlightDump(const std::string& reason) {
  if (FlightRecorder* fr = FlightRecorder::Current()) return fr->Dump(reason);
  return Status::Ok();
}

}  // namespace uvs::obs

#include "src/obs/flight_recorder.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "src/common/json.hpp"

namespace uvs::obs {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  ring_.resize(capacity_);
}

FlightRecorder::~FlightRecorder() { Uninstall(); }

void FlightRecorder::Install() {
  assert(current_ == nullptr &&
         "another obs::FlightRecorder is already installed on this thread");
  current_ = this;
}

void FlightRecorder::Uninstall() {
  if (current_ == this) current_ = nullptr;
}

void FlightRecorder::Note(Time t, const char* kind, std::string_view what, double value,
                          std::string_view detail) {
  // Assign into the reused slot: short strings stay in SSO storage and
  // longer ones reuse the slot's capacity, so steady-state noting does not
  // allocate.
  Entry& e = ring_[next_];
  e.t = t;
  e.kind = kind;
  e.what.assign(what);
  e.value = value;
  e.detail.assign(detail);
  next_ = (next_ + 1) % capacity_;
  ++noted_;
}

std::string FlightRecorder::ToJson(const std::string& reason) const {
  const std::size_t n = size();
  std::string out = "{\"schema\":\"univistor.flight.v1\"";
  out += ",\"reason\":\"" + json::Escape(reason) + "\"";
  out += ",\"capacity\":" + std::to_string(capacity_);
  out += ",\"total_noted\":" + std::to_string(noted_);
  out += ",\"dropped\":" + std::to_string(noted_ - n);
  out += ",\"entries\":[";
  // Oldest entry first: when the ring has wrapped, that is the slot the
  // next Note would overwrite.
  const std::size_t start = noted_ > capacity_ ? next_ : 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Entry& e = ring_[(start + i) % capacity_];
    if (i > 0) out += ",";
    out += "\n{\"t\":" + json::Number(e.t);
    out += ",\"kind\":\"" + json::Escape(e.kind) + "\"";
    out += ",\"what\":\"" + json::Escape(e.what) + "\"";
    if (e.value != 0.0) out += ",\"value\":" + json::Number(e.value);
    if (!e.detail.empty()) out += ",\"detail\":\"" + json::Escape(e.detail) + "\"";
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

Status FlightRecorder::Dump(const std::string& reason) {
  if (dump_path_.empty()) return Status::Ok();  // not counted: nothing was dumped
  ++dumps_;
  last_reason_ = reason;
  const std::string body = ToJson(reason);
  std::FILE* f = std::fopen(dump_path_.c_str(), "w");
  if (f == nullptr) return UnavailableError("cannot open " + dump_path_ + " for writing");
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const int close_rc = std::fclose(f);
  if (written != body.size() || close_rc != 0)
    return UnavailableError("short write to " + dump_path_);
  return Status::Ok();
}

}  // namespace uvs::obs

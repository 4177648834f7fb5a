#include "common/trace_recorder.h"

#include <algorithm>
#include <array>
#include <istream>
#include <ostream>
#include <string>

namespace netcache {

namespace {

constexpr std::array<const char*, 11> kEventNames = {
    "client_send",   "client_reply",   "client_timeout", "switch_hit",
    "switch_miss",   "switch_invalid", "switch_write_back",
    "server_drop",   "server_dequeue", "server_execute", "server_reply",
};

}  // namespace

const char* TraceEventName(TraceEvent event) {
  size_t i = static_cast<size_t>(event);
  return i < kEventNames.size() ? kEventNames[i] : "?";
}

std::optional<TraceEvent> TraceEventFromName(std::string_view name) {
  for (size_t i = 0; i < kEventNames.size(); ++i) {
    if (name == kEventNames[i]) {
      return static_cast<TraceEvent>(i);
    }
  }
  return std::nullopt;
}

TraceRecorder::TraceRecorder(size_t capacity) : capacity_(capacity) {
  ring_.reserve(capacity);
}

void TraceRecorder::Record(const SpanRecord& record) {
  // Stamp the record's stream (always 0: one serial dispatcher) and its
  // ordinal in execution order.
  SpanRecord stamped = record;
  stamped.stream = 0;
  MutexLock lock(mu_);
  ++recorded_;
  stamped.seq = next_seq_++;
  if (capacity_ == 0) {
    return;
  }
  if (ring_.size() < capacity_) {
    ring_.push_back(stamped);
  } else {
    ring_[(recorded_ - 1) % capacity_] = stamped;
  }
}

size_t TraceRecorder::size() const {
  MutexLock lock(mu_);
  return ring_.size();
}

uint64_t TraceRecorder::recorded() const {
  MutexLock lock(mu_);
  return recorded_;
}

uint64_t TraceRecorder::dropped() const {
  MutexLock lock(mu_);
  return recorded_ - ring_.size();
}

std::vector<SpanRecord> TraceRecorder::Events() const {
  MutexLock lock(mu_);
  return EventsLocked();
}

std::vector<SpanRecord> TraceRecorder::EventsLocked() const {
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_ || capacity_ == 0) {
    out = ring_;  // not yet wrapped: ring order is arrival order
    return out;
  }
  size_t head = recorded_ % capacity_;  // oldest surviving event
  for (size_t i = 0; i < capacity_; ++i) {
    out.push_back(ring_[(head + i) % capacity_]);
  }
  return out;
}

void TraceRecorder::Clear() {
  MutexLock lock(mu_);
  ring_.clear();
  recorded_ = 0;
  next_seq_ = 0;
}

void TraceRecorder::WriteJsonl(std::ostream& out) const {
  MutexLock lock(mu_);
  // Canonical (t, stream, seq) order over the surviving records.
  std::vector<SpanRecord> events = EventsLocked();
  std::sort(events.begin(), events.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.time != b.time) {
                return a.time < b.time;
              }
              if (a.stream != b.stream) {
                return a.stream < b.stream;
              }
              return a.seq < b.seq;
            });
  for (const SpanRecord& r : events) {
    out << "{\"t\":" << r.time << ",\"qid\":" << r.query_id << ",\"ev\":\""
        << TraceEventName(r.event) << "\",\"node\":" << r.node << ",\"detail\":" << r.detail
        << ",\"stream\":" << r.stream << ",\"seq\":" << r.seq << "}\n";
  }
}

namespace {

// Extracts the value following `"key":` in `line`; quotes, if present, are
// stripped. Returns false when the key is absent.
bool FieldValue(const std::string& line, const char* key, std::string* out) {
  std::string needle = std::string("\"") + key + "\":";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    return false;
  }
  pos += needle.size();
  bool quoted = pos < line.size() && line[pos] == '"';
  if (quoted) {
    ++pos;
  }
  size_t end = pos;
  while (end < line.size()) {
    char c = line[end];
    if (quoted ? c == '"' : (c == ',' || c == '}')) {
      break;
    }
    ++end;
  }
  *out = line.substr(pos, end - pos);
  return true;
}

}  // namespace

std::vector<SpanRecord> TraceRecorder::ReadJsonl(std::istream& in) {
  std::vector<SpanRecord> out;
  std::string line;
  while (std::getline(in, line)) {
    std::string t, qid, ev, node, detail;
    if (!FieldValue(line, "t", &t) || !FieldValue(line, "qid", &qid) ||
        !FieldValue(line, "ev", &ev) || !FieldValue(line, "node", &node) ||
        !FieldValue(line, "detail", &detail)) {
      continue;
    }
    std::optional<TraceEvent> event = TraceEventFromName(ev);
    if (!event.has_value()) {
      continue;
    }
    SpanRecord r;
    try {
      r.time = std::stoull(t);
      r.query_id = std::stoull(qid);
      r.node = static_cast<uint32_t>(std::stoul(node));
      r.detail = std::stoull(detail);
      // Optional (absent in pre-parallel traces): default to stream 0/seq 0.
      std::string stream, seq;
      if (FieldValue(line, "stream", &stream)) {
        r.stream = static_cast<uint32_t>(std::stoul(stream));
      }
      if (FieldValue(line, "seq", &seq)) {
        r.seq = std::stoull(seq);
      }
    } catch (...) {
      continue;
    }
    r.event = *event;
    out.push_back(r);
  }
  return out;
}

namespace internal {
TraceRecorder* g_trace_recorder = nullptr;
}  // namespace internal

TraceRecorder* InstallTraceRecorder(TraceRecorder* recorder) {
  TraceRecorder* previous = internal::g_trace_recorder;
  internal::g_trace_recorder = recorder;
  return previous;
}

TraceRecorder* GetTraceRecorder() { return internal::g_trace_recorder; }

}  // namespace netcache

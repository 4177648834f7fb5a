// Packet-lifecycle tracing: a bounded ring buffer of span events.
//
// Every query gets a stable id (client IP << 32 | sequence number), and each
// component on its path appends one event with the simulated-time stamp:
//
//   client_send -> switch_hit | switch_miss | switch_invalid
//               -> server_dequeue -> server_execute -> server_reply
//               -> client_reply | client_timeout
//
// The recorder is process-global and opt-in: components call the inline
// TraceSpan() helper, which is a single null check when no recorder is
// installed, and a literal no-op when the library is compiled with
// -DNETCACHE_DISABLE_TRACING — so the switch pipeline microbenchmarks are
// unaffected (acceptance: fig09 per-packet cost unchanged within noise).
//
// The buffer is a fixed-capacity ring: the newest `capacity` events win and
// `dropped()` reports how many older ones were overwritten. Events serialize
// to JSONL (one JSON object per line) and round-trip through ReadJsonl.

#ifndef NETCACHE_COMMON_TRACE_RECORDER_H_
#define NETCACHE_COMMON_TRACE_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string_view>
#include <vector>

#include "common/thread_annotations.h"
#include "common/time_units.h"

namespace netcache {

enum class TraceEvent : uint8_t {
  kClientSend = 0,
  kClientReply = 1,
  kClientTimeout = 2,
  kSwitchHit = 3,      // cache lookup hit on a valid entry, served in-switch
  kSwitchMiss = 4,     // cache lookup miss, forwarded to the server
  kSwitchInvalid = 5,  // lookup hit but the entry is invalidated
  kSwitchWriteBack = 6,  // write absorbed in-switch (write-back mode)
  kServerDrop = 7,     // shed at the server's bounded queue
  kServerDequeue = 8,  // left the service queue, service time starts
  kServerExecute = 9,  // KV operation applied
  kServerReply = 10,   // reply left the server
};

// Stable names used in the JSONL output ("client_send", "switch_hit", ...).
const char* TraceEventName(TraceEvent event);
std::optional<TraceEvent> TraceEventFromName(std::string_view name);

struct SpanRecord {
  SimTime time = 0;       // simulated nanoseconds
  uint64_t query_id = 0;  // client ip << 32 | client sequence number
  TraceEvent event = TraceEvent::kClientSend;
  uint32_t node = 0;   // IP of the component that recorded the event
  uint64_t detail = 0;  // event-specific (e.g. OpCode, queue depth)
  // Stamped by Record(): the event stream that produced the record (always
  // 0: the simulator has one serial dispatcher) and the record's ordinal in
  // execution order. Together with `time` they define the canonical output
  // order WriteJsonl emits.
  uint32_t stream = 0;
  uint64_t seq = 0;

  bool operator==(const SpanRecord& other) const = default;
};

class TraceRecorder {
 public:
  // capacity == 0 records nothing (but still counts attempts).
  explicit TraceRecorder(size_t capacity);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void Record(const SpanRecord& record);

  size_t capacity() const { return capacity_; }
  // Events currently held (<= capacity).
  size_t size() const;
  // Total Record() calls, including overwritten ones.
  uint64_t recorded() const;
  // Events lost to ring wraparound (or zero capacity).
  uint64_t dropped() const;

  // Events oldest-first.
  std::vector<SpanRecord> Events() const;

  void Clear();

  // One JSON object per line, in canonical (t, stream, seq) order:
  //   {"t":1200,"qid":792633534417207297,"ev":"switch_hit","node":4294901761,"detail":0,"stream":0,"seq":42}
  void WriteJsonl(std::ostream& out) const;

  // Parses WriteJsonl output (exactly this schema; not a general JSON
  // parser). Returns the records in file order; malformed lines are skipped.
  static std::vector<SpanRecord> ReadJsonl(std::istream& in);

 private:
  std::vector<SpanRecord> EventsLocked() const NC_REQUIRES(mu_);

  const size_t capacity_;
  // The ring is mutex-guarded so that concurrent recorders (parallel sweep
  // trials sharing one installed recorder) cannot corrupt it.
  mutable Mutex mu_;
  std::vector<SpanRecord> ring_ NC_GUARDED_BY(mu_);
  uint64_t recorded_ NC_GUARDED_BY(mu_) = 0;
  uint64_t next_seq_ NC_GUARDED_BY(mu_) = 0;
};

namespace internal {
// Not a std::atomic: the recorder is installed before the simulation runs
// and uninstalled after it returns, so the pointer is never written
// concurrently with a read; a plain pointer keeps the hot-path check to one
// load. (The ring behind it is mutex-guarded.)
extern TraceRecorder* g_trace_recorder;
}  // namespace internal

// Installs `recorder` as the process-global sink (nullptr disables tracing).
// Returns the previously installed recorder.
TraceRecorder* InstallTraceRecorder(TraceRecorder* recorder);
TraceRecorder* GetTraceRecorder();

inline bool TraceEnabled() {
#ifdef NETCACHE_DISABLE_TRACING
  return false;
#else
  return internal::g_trace_recorder != nullptr;
#endif
}

// The call sites' single entry point; compiles to nothing when tracing is
// disabled at build time, and to one null check when no recorder is
// installed.
inline void TraceSpan(TraceEvent event, uint64_t query_id, SimTime time, uint32_t node,
                      uint64_t detail = 0) {
#ifdef NETCACHE_DISABLE_TRACING
  (void)event;
  (void)query_id;
  (void)time;
  (void)node;
  (void)detail;
#else
  if (internal::g_trace_recorder != nullptr) {
    internal::g_trace_recorder->Record(SpanRecord{time, query_id, event, node, detail});
  }
#endif
}

}  // namespace netcache

#endif  // NETCACHE_COMMON_TRACE_RECORDER_H_

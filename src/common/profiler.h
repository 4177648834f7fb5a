// Low-overhead wall-clock profiler: scoped timers writing fixed-size
// per-thread span buffers, exported as Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing) plus an aggregate summary block that
// tools/profile_report.py turns into an attribution table.
//
// Why this exists: end-of-run counters cannot say where the wall-clock
// nanoseconds of a run go. The profiler attributes every span to one of a
// fixed set of categories — the dispatcher's execute span (one per
// Simulator::RunUntil / RunAll call) and, nested inside it, the switch Get
// pipeline's stages, the server's service stages and the link's egress
// flushes (docs/PERFORMANCE.md, "Where the wall-clock goes").
//
// Design rules, in order:
//   1. Never perturb the simulation. The profiler reads the wall clock and
//      writes its own buffers; it never touches simulator state, and no
//      simulation decision may depend on it. This file and profiler.cc are
//      the only places outside bench/ allowed to read steady_clock (the
//      determinism lint carves out exactly this pair). determinism_test runs
//      its legs with --profile-out on to enforce the contract end to end.
//   2. Zero heap allocation on the hot path. Each recording thread owns a
//      lane with a fixed-capacity span vector, reserved once when the thread
//      first records; when the buffer fills, further spans are counted as
//      dropped but per-category aggregate totals keep accumulating, so the
//      attribution table stays exact even when the timeline is truncated.
//   3. Compile to nothing when disabled. With -DNETCACHE_DISABLE_PROFILING
//      every ProfScope is an empty object; without it, an uninstalled
//      profiler costs one relaxed atomic load per scope (the pointer is
//      atomic: parallel sweep trials read it concurrently with
//      Install/uninstall).
//
// Ownership: the installer (tools/netcache_sim.cpp, bench/bench_harness.cc)
// must keep the Profiler alive until every simulation that records into it
// has finished — a sweep worker may still hold the pointer it loaded at
// scope entry when the profiler is uninstalled.

#ifndef NETCACHE_COMMON_PROFILER_H_
#define NETCACHE_COMMON_PROFILER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/thread_annotations.h"

namespace netcache {

// Span categories. `execute` is the one wall-clock bucket the attribution
// table is defined over; every other stage nests inside an execute span and
// is reported as a breakdown within execute, never added to the wall-clock
// bucket (that would double-count).
enum class ProfCat : uint8_t {
  kExecute = 0,           // the dispatcher draining its queue (one RunUntil/RunAll)
  kSwitchDigest = 1,      // switch Get stage 1: ingress key digest
  kSwitchMatchPeek = 2,   // switch Get stage 2: cache lookup match + status
  kSwitchValueServe = 3,  // switch Get stage 3: stats + value read + emit
  kServerLookup = 4,      // server service: store lookup under the store mutex
  kServerReply = 5,       // server service: in-place reply rewrite + send
  kEgressFlush = 6,       // link: transmit-group close + delivery scheduling
};
inline constexpr size_t kNumProfCats = 7;

// Stable names used in the JSON output ("execute", "switch_digest", ...).
const char* ProfCatName(ProfCat cat);

// One closed span on a lane's timeline. 32 bytes so a full lane stays cache-
// and memory-friendly; times are nanoseconds relative to Profiler
// construction (Chrome trace `ts` wants small numbers anyway).
struct ProfSpanRecord {
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t arg = 0;  // events dispatched / packets
  uint32_t cat = 0;  // ProfCat
};

class Profiler {
 public:
  struct Options {
    // Timeline spans kept per recording thread; overflow is dropped (and
    // counted), aggregates keep accumulating. 2^18 spans = 8 MiB per lane.
    size_t spans_per_lane = size_t{1} << 18;
    // Recording threads; a thread past the cap records nothing (counted).
    size_t max_lanes = 64;
    // Unused; kept so perfbench/, which sets it, still compiles.
    size_t max_lps = 256;
  };

  explicit Profiler(const Options& options);

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // Wall nanoseconds on the monotonic clock. The profiler's one clock read;
  // every stored timestamp is relative to the construction instant.
  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  // Appends one closed span [start_ns, end_ns) from the calling thread's
  // lane. `arg` is the category's count tag (events dispatched for execute,
  // packets for the nested stages). Lock-free: each thread writes only its
  // own lane.
  void RecordSpan(ProfCat cat, uint64_t start_ns, uint64_t end_ns, uint64_t arg);

  // Post-run accessors (call only after recording threads are quiescent).
  size_t lanes_used() const;
  uint64_t spans_recorded() const;
  uint64_t spans_dropped() const;

  // Writes the whole profile as Chrome trace-event JSON:
  //   {"traceEvents":[...], "displayTimeUnit":"ms", "netcache":{...}}
  // Perfetto ignores the extra "netcache" key; profile_report.py reads the
  // aggregates from it so the report survives timeline truncation.
  void WriteChromeTrace(std::ostream& out) const;

 private:
  struct CatAgg {
    uint64_t ns = 0;
    uint64_t count = 0;
    uint64_t arg = 0;
  };

  struct Lane {
    std::vector<ProfSpanRecord> spans;
    uint64_t dropped = 0;
    uint64_t first_ns = ~uint64_t{0};  // extent of recorded activity
    uint64_t last_ns = 0;
    std::array<CatAgg, kNumProfCats> cats{};
  };

  // The calling thread's lane, acquired on first use; nullptr once max_lanes
  // threads have registered.
  Lane* LaneForThisThread();

  // Thread → lane binding, keyed by a process-unique profiler id (NOT the
  // address: a later Profiler constructed at a recycled address would
  // otherwise inherit a stale lane pointer into freed memory).
  struct TlsSlot {
    uint64_t owner_id = 0;  // 0 = unbound; profiler ids start at 1
    Lane* lane = nullptr;
  };
  static thread_local TlsSlot tls_slot_;

  const Options options_;
  const uint64_t id_;
  const uint64_t t0_ns_;
  std::vector<Lane> lanes_;
  // Lane registry: reg_mu_ serializes lane handout (each thread pays it once,
  // on its first span) and guards the count the serializer reads; the lanes
  // themselves stay lock-free — after registration a Lane is written by
  // exactly one thread, and the serializer runs after recording threads are
  // joined.
  mutable Mutex reg_mu_;
  size_t lane_count_ NC_GUARDED_BY(reg_mu_) = 0;
  std::atomic<uint64_t> unassigned_drops_{0};  // spans from threads past max_lanes
};

namespace internal {
// Atomic, unlike the trace recorder's plain pointer: parallel sweep trials
// load it concurrently with the main thread's Install/uninstall. Relaxed is
// enough — span visibility to the serializer is ordered by joining the
// recording threads, not by this pointer.
extern std::atomic<Profiler*> g_profiler;
}  // namespace internal

// Installs `profiler` as the process-global sink (nullptr disables
// profiling). Returns the previously installed profiler.
Profiler* InstallProfiler(Profiler* profiler);
Profiler* GetProfiler();

inline bool ProfilingEnabled() {
#ifdef NETCACHE_DISABLE_PROFILING
  return false;
#else
  return internal::g_profiler.load(std::memory_order_relaxed) != nullptr;
#endif
}

// RAII span: captures the installed profiler and a start tick at
// construction, records on destruction. When no profiler is installed the
// whole object is one relaxed load and a branch; with
// -DNETCACHE_DISABLE_PROFILING it is empty.
class ProfScope {
 public:
  explicit ProfScope(ProfCat cat) {
#ifdef NETCACHE_DISABLE_PROFILING
    (void)cat;
#else
    prof_ = internal::g_profiler.load(std::memory_order_relaxed);
    if (prof_ != nullptr) {
      cat_ = cat;
      start_ns_ = Profiler::NowNs();
    }
#endif
  }

  ~ProfScope() {
#ifndef NETCACHE_DISABLE_PROFILING
    if (prof_ != nullptr) {
      prof_->RecordSpan(cat_, start_ns_, Profiler::NowNs(), arg_);
    }
#endif
  }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

  // Sets the span's count tag (events dispatched / packets).
  void set_arg(uint64_t arg) {
#ifdef NETCACHE_DISABLE_PROFILING
    (void)arg;
#else
    arg_ = arg;
#endif
  }

 private:
#ifndef NETCACHE_DISABLE_PROFILING
  Profiler* prof_ = nullptr;
  uint64_t start_ns_ = 0;
  uint64_t arg_ = 0;
  ProfCat cat_ = ProfCat::kExecute;
#endif
};

}  // namespace netcache

#endif  // NETCACHE_COMMON_PROFILER_H_

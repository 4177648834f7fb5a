#include "common/profiler.h"

#include <algorithm>
#include <ostream>
#include <string>

#include "common/json_writer.h"
#include "common/logging.h"

namespace netcache {

namespace internal {
std::atomic<Profiler*> g_profiler{nullptr};
}  // namespace internal

thread_local Profiler::TlsSlot Profiler::tls_slot_;

namespace {
// Process-unique profiler ids for the TLS lane binding; 0 means unbound.
std::atomic<uint64_t> g_next_profiler_id{1};
}  // namespace

const char* ProfCatName(ProfCat cat) {
  switch (cat) {
    case ProfCat::kExecute:
      return "execute";
    case ProfCat::kSwitchDigest:
      return "switch_digest";
    case ProfCat::kSwitchMatchPeek:
      return "switch_match_peek";
    case ProfCat::kSwitchValueServe:
      return "switch_value_serve";
    case ProfCat::kServerLookup:
      return "server_lookup";
    case ProfCat::kServerReply:
      return "server_reply";
    case ProfCat::kEgressFlush:
      return "egress_flush";
  }
  return "unknown";
}

Profiler::Profiler(const Options& options)
    : options_(options),
      id_(g_next_profiler_id.fetch_add(1, std::memory_order_relaxed)),
      t0_ns_(NowNs()),
      lanes_(options.max_lanes) {
  NC_CHECK(options.max_lanes >= 1) << "profiler needs at least one lane";
}

Profiler::Lane* Profiler::LaneForThisThread() {
  TlsSlot& slot = tls_slot_;
  if (slot.owner_id != id_) {
    size_t idx;
    {
      MutexLock lock(reg_mu_);
      idx = lane_count_++;
    }
    slot.owner_id = id_;
    slot.lane = nullptr;
    if (idx < lanes_.size()) {
      slot.lane = &lanes_[idx];
      // The one allocation a recording thread ever performs, paid on its
      // first span, never in steady state.
      slot.lane->spans.reserve(options_.spans_per_lane);
    }
  }
  return slot.lane;
}

void Profiler::RecordSpan(ProfCat cat, uint64_t start_ns, uint64_t end_ns, uint64_t arg) {
  Lane* lane = LaneForThisThread();
  if (lane == nullptr) {
    unassigned_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  uint64_t start = start_ns - t0_ns_;
  uint64_t dur = end_ns > start_ns ? end_ns - start_ns : 0;
  CatAgg& agg = lane->cats[static_cast<size_t>(cat)];
  agg.ns += dur;
  agg.count += 1;
  agg.arg += arg;
  lane->first_ns = std::min(lane->first_ns, start);
  lane->last_ns = std::max(lane->last_ns, start + dur);
  if (lane->spans.size() < options_.spans_per_lane) {
    lane->spans.push_back(ProfSpanRecord{start, dur, arg, static_cast<uint32_t>(cat)});
  } else {
    lane->dropped += 1;
  }
}

size_t Profiler::lanes_used() const {
  MutexLock lock(reg_mu_);
  return std::min(lane_count_, lanes_.size());
}

uint64_t Profiler::spans_recorded() const {
  uint64_t n = 0;
  for (const Lane& lane : lanes_) {
    n += lane.spans.size();
  }
  return n;
}

uint64_t Profiler::spans_dropped() const {
  uint64_t n = unassigned_drops_.load(std::memory_order_relaxed);
  for (const Lane& lane : lanes_) {
    n += lane.dropped;
  }
  return n;
}

void Profiler::WriteChromeTrace(std::ostream& out) const {
  JsonWriter w(out);
  w.BeginObject();
  w.Field("displayTimeUnit", "ms");
  w.Name("traceEvents");
  w.BeginArray();
  size_t used = lanes_used();
  // Thread-name metadata first so Perfetto labels the rows; lane i is the
  // i-th thread to record.
  for (size_t i = 0; i < used; ++i) {
    w.BeginObject();
    w.Field("ph", "M");
    w.Field("name", "thread_name");
    w.Field("pid", 0);
    w.Field("tid", static_cast<uint64_t>(i));
    w.Name("args");
    w.BeginObject();
    w.Field("name", "lane" + std::to_string(i));
    w.EndObject();
    w.EndObject();
  }
  for (size_t i = 0; i < used; ++i) {
    const Lane& lane = lanes_[i];
    for (const ProfSpanRecord& s : lane.spans) {
      ProfCat cat = static_cast<ProfCat>(s.cat);
      bool des = cat == ProfCat::kExecute;
      w.BeginObject();
      w.Field("name", ProfCatName(cat));
      w.Field("cat", des ? "des" : "stage");
      w.Field("ph", "X");
      // Chrome trace timestamps are microseconds; fractional keeps ns.
      w.Field("ts", static_cast<double>(s.start_ns) / 1e3);
      w.Field("dur", static_cast<double>(s.dur_ns) / 1e3);
      w.Field("pid", 0);
      w.Field("tid", static_cast<uint64_t>(i));
      w.Name("args");
      w.BeginObject();
      if (des) {
        w.Field("events", s.arg);
      } else {
        w.Field("packets", s.arg);
      }
      w.EndObject();
      w.EndObject();
    }
  }
  w.EndArray();
  // Aggregate summary for profile_report.py: exact per-category totals that
  // keep accumulating after the span timeline overflows. Perfetto ignores
  // unknown top-level keys.
  w.Name("netcache");
  w.BeginObject();
  w.Field("version", 2);
  w.Field("spans_per_lane", static_cast<uint64_t>(options_.spans_per_lane));
  w.Field("spans_dropped", spans_dropped());
  w.Name("lanes");
  w.BeginArray();
  for (size_t i = 0; i < used; ++i) {
    const Lane& lane = lanes_[i];
    w.BeginObject();
    w.Field("lane", static_cast<uint64_t>(i));
    w.Field("spans", static_cast<uint64_t>(lane.spans.size()));
    w.Field("dropped", lane.dropped);
    uint64_t first = lane.first_ns == ~uint64_t{0} ? 0 : lane.first_ns;
    w.Field("first_ns", first);
    w.Field("last_ns", lane.last_ns);
    w.Name("cats");
    w.BeginObject();
    for (size_t c = 0; c < kNumProfCats; ++c) {
      const CatAgg& agg = lane.cats[c];
      w.Name(ProfCatName(static_cast<ProfCat>(c)));
      w.BeginObject();
      w.Field("ns", agg.ns);
      w.Field("count", agg.count);
      w.Field("arg", agg.arg);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
}

Profiler* InstallProfiler(Profiler* profiler) {
  return internal::g_profiler.exchange(profiler, std::memory_order_release);
}

Profiler* GetProfiler() {
  return internal::g_profiler.load(std::memory_order_relaxed);
}

}  // namespace netcache

#include "bench/bench_harness.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "common/cli.h"
#include "common/json_writer.h"
#include "common/logging.h"
#include "common/simd.h"

namespace netcache {
namespace bench {
namespace {

// The first "model name" in /proc/cpuinfo, or "unknown" where there is none.
std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) {
      continue;
    }
    size_t value = line.find_first_not_of(" \t", line.find(':') + 1);
    if (value != std::string::npos) {
      return line.substr(value);
    }
  }
  return "unknown";
}

// Quantile q of sorted `v` by linear interpolation between closest ranks.
double Quantile(const std::vector<double>& v, double q) {
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// Median and interquartile range of `v`.
std::pair<double, double> MedianIqr(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return {Quantile(v, 0.5), Quantile(v, 0.75) - Quantile(v, 0.25)};
}

// Writes `name` (the median over the runs) and `name`_iqr for a per-run
// rate count / wall seconds.
void WriteRate(JsonWriter& w, const std::string& name, uint64_t count,
               const std::vector<double>& wall_ms_runs) {
  std::vector<double> rates;
  for (double ms : wall_ms_runs) {
    rates.push_back(static_cast<double>(count) / (ms / 1e3));
  }
  auto [median, iqr] = MedianIqr(rates);
  w.Field(name, median);
  w.Field(name + "_iqr", iqr);
}

}  // namespace

TrialRecord FoldRepetitions(std::vector<TrialRecord> runs) {
  NC_CHECK(!runs.empty());
  TrialRecord folded = std::move(runs[0]);
  folded.wall_ms_runs = {folded.wall_ms};
  for (size_t i = 1; i < runs.size(); ++i) {
    const TrialRecord& r = runs[i];
    NC_CHECK(r.label == folded.label && r.config == folded.config &&
             r.metrics == folded.metrics && r.events == folded.events &&
             r.queries == folded.queries)
        << "trial " << folded.label << ": repetition " << i
        << " simulated different results than repetition 0 (events " << r.events << " vs "
        << folded.events << ", queries " << r.queries << " vs " << folded.queries
        << "); a seeded trial must repeat exactly";
    folded.wall_ms_runs.push_back(r.wall_ms);
  }
  folded.wall_ms = MedianIqr(folded.wall_ms_runs).first;
  return folded;
}

BenchHarness::BenchHarness(int argc, char** argv, std::string name)
    : name_(std::move(name)) {
  ArgParser args(argc, argv);
  json_path_ = args.GetString("json", "");
  profile_out_ = args.GetString("profile-out", "");
  seed_ = static_cast<uint64_t>(args.GetInt("seed", 42));
  threads_ = static_cast<size_t>(args.GetInt("threads", 0));
  serial_ = args.GetBool("serial", false);
  egress_batch_ = !args.GetBool("no-egress-batch", false);
  if (args.GetBool("no-simd", false)) {
    ForceScalarSimd();
  }
  if (!profile_out_.empty()) {
    Profiler::Options popts;
    popts.spans_per_lane =
        static_cast<size_t>(args.GetInt("profile-limit", 1 << 18));
    profiler_ = std::make_unique<Profiler>(popts);
    InstallProfiler(profiler_.get());
  }
}

TrialRecord& BenchHarness::AddTrial(const std::string& label) {
  trials_.push_back(TrialRecord{});
  trials_.back().label = label;
  return trials_.back();
}

void BenchHarness::AddTrialRecord(TrialRecord record) {
  trials_.push_back(std::move(record));
}

int BenchHarness::Finish() const {
  int rc = 0;
  if (profiler_ != nullptr) {
    InstallProfiler(nullptr);
    std::ofstream prof_out(profile_out_);
    if (!prof_out) {
      std::fprintf(stderr, "bench_harness: cannot open '%s' for writing\n",
                   profile_out_.c_str());
      rc = 1;
    } else {
      profiler_->WriteChromeTrace(prof_out);
      prof_out << "\n";
      if (!prof_out.good()) {
        std::fprintf(stderr, "bench_harness: write to '%s' failed\n", profile_out_.c_str());
        rc = 1;
      } else {
        std::printf("profile         %llu spans in %zu lane(s) to %s (%llu dropped)\n",
                    static_cast<unsigned long long>(profiler_->spans_recorded()),
                    profiler_->lanes_used(), profile_out_.c_str(),
                    static_cast<unsigned long long>(profiler_->spans_dropped()));
      }
    }
  }
  if (json_path_.empty()) {
    return rc;
  }
  std::ofstream out(json_path_);
  if (!out) {
    std::fprintf(stderr, "bench_harness: cannot open '%s' for writing\n", json_path_.c_str());
    return 1;
  }
  JsonWriter w(out);
  w.BeginObject();
  w.Field("bench", name_);
  w.Field("seed", seed_);
  // Run configuration. bench_regress.py hard-errors when two documents
  // disagree here: wall-clock is not comparable across threading setups,
  // and scalar-vs-SIMD numbers are different codepaths entirely.
  w.Name("config");
  w.BeginObject();
  w.Field("threads", static_cast<uint64_t>(threads_));
  w.Field("serial", serial_ ? 1 : 0);
  // "avx2" | "scalar" — the SIMD dispatch level the trials ran at (lowered
  // by --no-simd / NETCACHE_SIMD=OFF / a non-AVX2 host).
  w.Field("simd_level", ActiveSimdLevelName());
  // Whether links shipped transmit groups as burst delivery records. The
  // legs are byte-identical in simulated outputs but not in wall-clock, so
  // the regression gate refuses to compare across this bit.
  w.Field("egress_batch", egress_batch_ ? 1 : 0);
  w.EndObject();
  // Where the wall-clock numbers were taken; bench_regress.py --perf refuses
  // to compare documents from different hosts.
  w.Name("host");
  w.BeginObject();
  w.Field("build_type", NETCACHE_BUILD_TYPE);
  w.Field("nproc", static_cast<uint64_t>(std::thread::hardware_concurrency()));
  w.Field("cpu_model", CpuModel());
  w.Field("compiler", NETCACHE_COMPILER);
  w.EndObject();
  w.Name("trials");
  w.BeginArray();
  for (const TrialRecord& t : trials_) {
    w.BeginObject();
    w.Field("label", t.label);
    w.Name("config");
    w.BeginObject();
    for (const auto& [key, value] : t.config) {
      w.Field(key, value);
    }
    w.EndObject();
    w.Name("metrics");
    w.BeginObject();
    for (const auto& [key, value] : t.metrics) {
      w.Field(key, value);
    }
    w.EndObject();
    if (t.wall_ms_runs.size() > 1) {
      w.Field("repetitions", static_cast<uint64_t>(t.wall_ms_runs.size()));
      w.Field("wall_ms", t.wall_ms);  // the median (FoldRepetitions)
      w.Field("wall_ms_iqr", MedianIqr(t.wall_ms_runs).second);
      if (t.events > 0) {
        w.Field("events", t.events);
        WriteRate(w, "events_per_sec", t.events, t.wall_ms_runs);
      }
      if (t.queries > 0) {
        w.Field("queries", t.queries);
        WriteRate(w, "queries_per_sec", t.queries, t.wall_ms_runs);
      }
    } else if (t.wall_ms > 0) {
      w.Field("wall_ms", t.wall_ms);
      if (t.events > 0) {
        w.Field("events", t.events);
        w.Field("events_per_sec", static_cast<double>(t.events) / (t.wall_ms / 1e3));
      }
      if (t.queries > 0) {
        w.Field("queries", t.queries);
        w.Field("queries_per_sec", static_cast<double>(t.queries) / (t.wall_ms / 1e3));
      }
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  out << "\n";
  if (!out.good()) {
    std::fprintf(stderr, "bench_harness: write to '%s' failed\n", json_path_.c_str());
    return 1;
  }
  std::printf("json            trial results to %s\n", json_path_.c_str());
  return rc;
}

}  // namespace bench
}  // namespace netcache

// netcache_perfbench — runs one benchmark workload for a wall-clock budget
// and prints its raw measurements as JSON lines; perfbench/run.py turns them
// into the benchmark's metrics.
//
//   netcache_perfbench --workload=NAME --seed=N --seconds=S [--traced] [--min-reps=K]
//
// Untraced: repetitions of the workload on the library's own Rack/Fabric,
// each built from scratch, for about S seconds (at least K reps).
// Traced: alternates an untraced repetition with one on the timed copy of
// the wiring (timed_topology.h) under the Profiler, then ends with one
// repetition that runs the invariant checkers. Every repetition of a run
// must reproduce the first one's simulated results exactly.
//
// Output lines: {"type":"fingerprint",...}, one {"type":"rep",...} per
// repetition, and a final {"type":"done","peak_rss_kb":...}. Exit code 0
// even when a check fails (run.py reads the problems); 2 on bad arguments.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "common/profiler.h"
#include "common/simd.h"
#include "perfbench/timed_topology.h"
#include "perfbench/workloads.h"

namespace netcache::perfbench {
namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Object(const Values& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) {
      out += ",";
    }
    out += Quote(name) + ":" + Number(value);
  }
  return out + "}";
}

std::string Array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ",") + Quote(items[i]);
  }
  return out + "]";
}

Values ClockValues(const LayerClocks& c) {
  Values v;
  const std::pair<const char*, const NodeClock*> nodes[] = {
      {"switch", &c.switches}, {"server", &c.servers}, {"client", &c.clients}};
  for (const auto& [name, clock] : nodes) {
    std::string p = name;
    v[p + ".ns"] = static_cast<double>(clock->ns);
    v[p + ".calls"] = static_cast<double>(clock->calls);
    v[p + ".packets"] = static_cast<double>(clock->packets);
    v[p + ".burst_packets"] = static_cast<double>(clock->burst_packets);
  }
  v["workload.ns"] = static_cast<double>(c.source_ns);
  v["workload.calls"] = static_cast<double>(c.source_calls);
  return v;
}

// Differences of `got` from `want`, both ways, at most `limit` of them.
void Diff(const char* what, const Values& want, const Values& got,
          std::vector<std::string>* out, size_t limit = 8) {
  for (const auto& [name, value] : want) {
    auto it = got.find(name);
    if (it == got.end() || it->second != value) {
      if (out->size() < limit) {
        out->push_back(std::string(what) + " " + name + ": " + Number(value) + " vs " +
                       (it == got.end() ? std::string("missing") : Number(it->second)));
      }
    }
  }
  for (const auto& [name, value] : got) {
    if (want.count(name) == 0 && out->size() < limit) {
      out->push_back(std::string(what) + " " + name + ": unexpected " + Number(value));
    }
  }
}

class Reporter {
 public:
  void Rep(const char* kind, const RepResult& r, const LayerClocks* clocks,
           const std::string& profile) {
    std::vector<std::string> diff;
    if (first_ == nullptr) {
      first_ = std::make_unique<RepResult>(r);
    } else {
      Diff("model", first_->model, r.model, &diff);
      Diff("engine", first_->engine, r.engine, &diff);
    }
    std::string line = "{\"type\":\"rep\",\"index\":" + std::to_string(index_++) +
                       ",\"kind\":" + Quote(kind);
    const std::pair<const char*, double> scalars[] = {
        {"build_s", r.build_s}, {"populate_s", r.populate_s}, {"warm_s", r.warm_s},
        {"setup_s", r.setup_s}, {"run_s", r.run_s},
        {"queries", static_cast<double>(r.queries)}};
    for (const auto& [name, value] : scalars) {
      line += ",\"" + std::string(name) + "\":" + Number(value);
    }
    line += ",\"sim\":" + Object(r.sim) + ",\"layer\":" + Object(r.layer) +
            ",\"engine\":" + Object(r.engine);
    if (index_ == 1) {
      line += ",\"model\":" + Object(r.model) + ",\"config\":" + Object(r.config);
    }
    if (clocks != nullptr) {
      line += ",\"clocks\":" + Object(ClockValues(*clocks));
    }
    if (!profile.empty()) {
      line += ",\"profile\":" + profile;
    }
    line += ",\"problems\":" + Array(r.problems) + ",\"diff\":" + Array(diff) + "}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }

 private:
  size_t index_ = 0;
  std::unique_ptr<RepResult> first_;
};

int Main(int argc, char** argv) {
  ArgParser args(argc, argv);
  std::string name = args.GetString("workload", "");
  uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  double seconds = args.GetDouble("seconds", 10);
  bool traced = args.GetBool("traced", false);
  size_t min_reps = static_cast<size_t>(args.GetInt("min-reps", 3));
  const WorkloadSpec* spec = FindWorkload(name);
  if (!args.ok() || spec == nullptr) {
    std::string names;
    for (const std::string& n : WorkloadNames()) {
      names += " " + n;
    }
    std::fprintf(stderr, "usage: %s --workload=<%s > --seed=N --seconds=S [--traced]\n",
                 argv[0], names.c_str());
    return 2;
  }

  std::printf(
      "{\"type\":\"fingerprint\",\"workload\":%s,\"seed\":%llu,\"mode\":%s,"
      "\"compiler\":%s,\"build_type\":%s,\"simd_level\":%s,\"hardware_concurrency\":%u}\n",
      Quote(name).c_str(), static_cast<unsigned long long>(seed),
      Quote(traced ? "traced" : "untraced").c_str(), Quote(PERFBENCH_COMPILER).c_str(),
      Quote(PERFBENCH_BUILD_TYPE).c_str(), Quote(ActiveSimdLevelName()).c_str(),
      std::thread::hardware_concurrency());

  auto library = [spec] { return MakeLibraryTopology(*spec); };
  auto start = std::chrono::steady_clock::now();
  auto elapsed = [start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  Reporter reporter;
  // Repeat while another iteration (and, traced, the closing checked
  // repetition) still fits in the budget, so a run ends near S seconds.
  double iteration_s = 0;
  double reserve = traced ? 1.5 : 1.0;
  for (size_t reps = 0; reps < min_reps || elapsed() + reserve * iteration_s <= seconds;
       ++reps) {
    double began = elapsed();
    reporter.Rep("untraced", RunRep(*spec, seed, library, {}), nullptr, "");
    if (!traced) {
      iteration_s = elapsed() - began;
      continue;
    }
    LayerClocks clocks;
    // Aggregates only: a zero-span timeline keeps the per-category totals
    // exact without an 8 MiB buffer per lane.
    Profiler::Options popts;
    popts.spans_per_lane = 0;
    popts.max_lps = 1;
    Profiler profiler(popts);
    InstallProfiler(&profiler);
    RepOptions opts;
    opts.clocks = &clocks;
    RepResult r = RunRep(
        *spec, seed, [spec, &clocks] { return MakeTimedTopology(*spec, &clocks); }, opts);
    InstallProfiler(nullptr);
    std::ostringstream profile;
    profiler.WriteChromeTrace(profile);
    reporter.Rep("traced", r, &clocks, profile.str());
    iteration_s = elapsed() - began;
  }
  if (traced) {
    // Invariant checkers on the library Rack (Rack::EnableInvariantChecks);
    // the library Fabric hides its links, so the fabric runs them on the
    // timed copy of its wiring.
    RepOptions opts;
    opts.checks = true;
    LayerClocks unused;
    auto checked = spec->fabric
                       ? std::function<std::unique_ptr<Topology>()>(
                             [spec, &unused] { return MakeTimedTopology(*spec, &unused); })
                       : std::function<std::unique_ptr<Topology>()>(library);
    reporter.Rep("checked", RunRep(*spec, seed, checked, opts), nullptr, "");
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::printf("{\"type\":\"done\",\"peak_rss_kb\":%ld}\n", usage.ru_maxrss);
  return 0;
}

}  // namespace
}  // namespace netcache::perfbench

int main(int argc, char** argv) { return netcache::perfbench::Main(argc, argv); }

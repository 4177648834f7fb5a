// Shared benchmark harness: machine-readable results for every fig*/abl*/tab*
// bench, feeding the JSON regression gate (scripts/bench_regress.py).
//
// Each bench registers one TrialRecord per table row / configuration point:
// a stable label, the numeric config axes, and the paper metrics it
// reproduces. DES-driven benches wrap their simulation in a TrialTimer, which
// adds wall-clock milliseconds and (via SetEvents) the simulator's
// events-processed count, from which the writer derives events_per_sec — the
// throughput measure the perf regression gate watches. Benches that count
// completed queries add them via SetQueries, and the writer derives
// queries_per_sec too: a change that removes events per query speeds up
// queries/s more than events/s. A bench that repeats a seeded trial folds
// the runs with FoldRepetitions: the writer then reports medians, each with
// its interquartile range as `*_iqr`.
//
// Flags (parsed from main's argv; unknown flags are ignored so google-benchmark
// style flags can coexist):
//   --json=PATH        write {bench, seed, config, trials:[...]} JSON
//   --seed=N           root seed for randomized benches (default 42)
//   --threads=N        worker threads for ParallelSweep-driven benches
//   --serial           force serial trial execution
//   --no-simd          force the scalar SIMD level for the whole process
//                      (same effect as NETCACHE_SIMD=OFF in the environment)
//   --no-egress-batch  ship multi-packet transmit groups as per-packet
//                      delivery records instead of one burst record
//                      (byte-identical outputs; the equivalence leg)
//   --profile-out=FILE wall-clock profile of the whole run as Chrome
//                      trace-event JSON (Perfetto-loadable; aggregate with
//                      tools/profile_report.py) — installed for the process
//                      lifetime, so every trial's spans land in one file
//   --profile-limit=N  timeline spans kept per recording thread
//
// The threading and SIMD knobs are recorded in the JSON's top-level "config"
// object — including `simd_level` ("avx2" | "scalar"), the dispatch level
// the trials executed at. scripts/bench_regress.py refuses to compare
// documents whose run configs differ, so an AVX2 run can never be graded
// against a scalar one.
//
// A top-level "host" object records where the numbers were taken: build_type,
// nproc, cpu_model and compiler. It is kept out of "config" on purpose: model
// metrics compare across hosts, wall-clock numbers do not, so only
// bench_regress.py --perf refuses documents whose hosts differ.
//
// Wall-clock calls live only in bench/ — the simulation library and tools are
// wall-clock-free by lint rule; benches are the one place timing is the point.

#ifndef NETCACHE_BENCH_BENCH_HARNESS_H_
#define NETCACHE_BENCH_BENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/profiler.h"
#include "core/sweep.h"

namespace netcache {
namespace bench {

struct TrialRecord {
  std::string label;
  // Ordered (name, value) pairs: insertion order is preserved so JSON output
  // is deterministic for a fixed seed.
  std::vector<std::pair<std::string, double>> config;
  std::vector<std::pair<std::string, double>> metrics;
  double wall_ms = 0;    // wall-clock of the timed section; 0 = untimed
  uint64_t events = 0;   // simulator events executed; 0 = closed-form bench
  uint64_t queries = 0;  // queries completed in the timed section; 0 = not counted
  // Every run's wall_ms when the trial was repeated (FoldRepetitions); then
  // wall_ms is their median and the writer adds the interquartile ranges.
  std::vector<double> wall_ms_runs;

  TrialRecord& Config(const std::string& name, double value) {
    config.emplace_back(name, value);
    return *this;
  }
  TrialRecord& Metric(const std::string& name, double value) {
    metrics.emplace_back(name, value);
    return *this;
  }
};

class BenchHarness {
 public:
  BenchHarness(int argc, char** argv, std::string name);

  uint64_t seed() const { return seed_; }

  // Thread options for benches that fan trials out via RunSweep.
  SweepOptions sweep_options() const {
    SweepOptions opts;
    opts.threads = threads_;
    opts.serial = serial_;
    opts.root_seed = seed_;
    return opts;
  }

  // Whether DES trials should let links ship transmit groups as burst
  // records (Simulator::set_egress_batching); --no-egress-batch clears it.
  bool egress_batching() const { return egress_batch_; }

  // Adds a trial; the reference stays valid for the harness's lifetime
  // (records live in a deque, which never relocates existing elements).
  TrialRecord& AddTrial(const std::string& label);

  // Moves a fully-built record in (for sweep-produced results).
  void AddTrialRecord(TrialRecord record);

  // Writes the JSON file when --json was given. Returns main()'s exit code
  // contribution: 0 on success or when no JSON was requested, 1 on I/O error.
  int Finish() const;

 private:
  std::string name_;
  std::string json_path_;
  std::string profile_out_;
  uint64_t seed_ = 42;
  size_t threads_ = 0;
  bool serial_ = false;
  bool egress_batch_ = true;
  std::deque<TrialRecord> trials_;
  // Destroyed after every trial's simulator (trials are function-local).
  std::unique_ptr<Profiler> profiler_;
};

// Folds repeated runs of one seeded trial into one record. The runs'
// simulated results (label, config, metrics, events, queries) must be
// identical — a fixed seed fixes them — and a mismatch is fatal. The record
// keeps every run's wall-clock: wall_ms becomes the median, and the JSON
// writer reports the median events_per_sec and queries_per_sec with a
// `*_iqr` (interquartile range) beside each, so one noisy run cannot move
// the number the perf gate compares.
TrialRecord FoldRepetitions(std::vector<TrialRecord> runs);

// RAII wall-clock scope for one trial's simulation section.
class TrialTimer {
 public:
  explicit TrialTimer(TrialRecord* trial)
      : trial_(trial), start_(std::chrono::steady_clock::now()) {}
  ~TrialTimer() {
    std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start_;
    trial_->wall_ms = elapsed.count();
  }

  TrialTimer(const TrialTimer&) = delete;
  TrialTimer& operator=(const TrialTimer&) = delete;

  void SetEvents(uint64_t events) { trial_->events = events; }
  void SetQueries(uint64_t queries) { trial_->queries = queries; }

 private:
  TrialRecord* trial_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace bench
}  // namespace netcache

#endif  // NETCACHE_BENCH_BENCH_HARNESS_H_

// Figure 10(f): scaling to multiple racks (up to 32 racks x 128 servers =
// 4096 servers), comparing NoCache, Leaf-Cache (ToR only) and
// Leaf-Spine-Cache, using the multi-rack capacity model (§5, §7.3
// "Scalability": simulation, read-only, switches absorb cached queries).
//
// A second leg runs the same leaf-spine topology as packet-level DES
// (core/fabric.h) at a scaled-down size. Each DES trial runs 5 times; its
// JSON wall_ms, events_per_sec and queries_per_sec are medians with a
// `*_iqr` beside each.
//
// Extra flags: --des-racks=N   run ONE DES trial at N racks (0 = default
//                              sweep over {1, 4}; 16 is the largest config
//                              docs/PERFORMANCE.md times)
//              --des-duration-ms=M  simulated time per DES trial (default 200)

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_harness.h"
#include "bench/bench_util.h"
#include "client/workload_driver.h"
#include "common/cli.h"
#include "core/fabric.h"
#include "core/multirack.h"
#include "workload/generator.h"

namespace netcache {
namespace {

MultiRackConfig Base(size_t racks, MultiRackMode mode) {
  MultiRackConfig cfg;
  cfg.num_racks = racks;
  cfg.servers_per_rack = 128;
  cfg.server_rate_qps = 10e6;
  cfg.tor_capacity_qps = 2.0e9;
  // One spine switch per 2 racks, as in a modest leaf-spine fabric.
  cfg.num_spines = racks > 1 ? racks / 2 : 1;
  cfg.spine_capacity_qps = 2.0e9;
  cfg.cache_items_per_switch = 10'000;
  cfg.num_keys = 1'000'000'000;
  cfg.zipf_alpha = 0.99;
  cfg.exact_ranks = 1 << 20;
  cfg.mode = mode;
  return cfg;
}

// One packet-level run of the leaf-spine fabric. Read-only (per §7.3),
// spine caches warmed with the globally hottest keys, one open-loop driver
// per spine client, each with its own decorrelated generator.
bench::TrialRecord RunDesOnce(bench::BenchHarness& harness, size_t racks, SimDuration duration,
                              bool print) {
  constexpr uint64_t kNumKeys = 10'000;
  constexpr size_t kWarmKeys = 64;

  FabricConfig cfg;
  cfg.num_racks = racks;
  cfg.servers_per_rack = 4;
  cfg.num_spines = racks >= 8 ? 4 : 2;
  cfg.mode = FabricCacheMode::kSpineOnly;
  for (SwitchConfig* sc : {&cfg.tor_config, &cfg.spine_config}) {
    sc->num_pipes = 1;
    sc->cache_capacity = 1024;
    sc->indexes_per_pipe = 1024;
    sc->stats.counter_slots = 1024;
  }
  cfg.controller_config.cache_capacity = kWarmKeys;
  cfg.server_template.service_rate_qps = 200e3;
  // Cross-rack fiber: 2 us of propagation on every ToR<->spine hop.
  cfg.fabric_propagation = 2 * kMicrosecond;
  Fabric fabric(cfg);
  fabric.Populate(kNumKeys, 128);

  // Per-client generators: same popularity law, decorrelated streams.
  std::vector<std::unique_ptr<WorkloadGenerator>> gens;
  std::vector<std::unique_ptr<WorkloadDriver>> drivers;
  DriverConfig dc;
  dc.rate_qps = 400e3;  // per client, read-only
  for (size_t s = 0; s < fabric.num_clients(); ++s) {
    WorkloadConfig wl;
    wl.num_keys = kNumKeys;
    wl.zipf_alpha = 0.99;
    wl.seed = harness.seed() + 1000 * (s + 1);
    gens.push_back(std::make_unique<WorkloadGenerator>(wl));
    drivers.push_back(std::make_unique<WorkloadDriver>(
        &fabric.sim(), &fabric.client(s), gens.back().get(), fabric.OwnerFn(), dc));
  }
  std::vector<Key> hot;
  for (uint64_t id : gens[0]->popularity().TopKeys(kWarmKeys)) {
    hot.push_back(Key::FromUint64(id));
  }
  fabric.WarmCaches(hot);

  bench::TrialRecord rec;
  rec.label = "des_racks=" + std::to_string(racks);
  uint64_t completed = 0;
  {
    bench::TrialTimer timer(&rec);
    for (auto& d : drivers) {
      d->Start();
    }
    fabric.sim().RunUntil(duration);
    for (auto& d : drivers) {
      d->Stop();
      completed += d->completed();
    }
    fabric.sim().RunUntil(duration + 10 * kMillisecond);
    timer.SetEvents(fabric.sim().events_processed());
    timer.SetQueries(completed);
  }

  double secs = static_cast<double>(duration) / 1e9;
  if (print) {
    std::printf("%-8zu %-8zu | DES %s over %.0f ms: spine hits %llu, server reads %llu\n",
                racks, racks * cfg.servers_per_rack, bench::Qps(completed / secs).c_str(),
                secs * 1e3, static_cast<unsigned long long>(fabric.TotalSpineHits()),
                static_cast<unsigned long long>(fabric.TotalServerReads()));
  }
  rec.Config("racks", static_cast<double>(racks))
      .Config("spines", static_cast<double>(cfg.num_spines))
      .Config("duration_ms", secs * 1e3)
      .Metric("goodput_qps", static_cast<double>(completed) / secs)
      .Metric("completed", static_cast<double>(completed))
      .Metric("spine_hits", static_cast<double>(fabric.TotalSpineHits()))
      .Metric("tor_hits", static_cast<double>(fabric.TotalTorHits()))
      .Metric("server_reads", static_cast<double>(fabric.TotalServerReads()));
  return rec;
}

// Every DES trial runs kDesRepetitions times: the simulated results must
// repeat exactly, and the JSON carries the median wall-clock and rates with
// their interquartile ranges (bench::FoldRepetitions).
constexpr int kDesRepetitions = 5;

void RunDesTrial(bench::BenchHarness& harness, size_t racks, SimDuration duration) {
  std::vector<bench::TrialRecord> runs;
  for (int i = 0; i < kDesRepetitions; ++i) {
    runs.push_back(RunDesOnce(harness, racks, duration, /*print=*/i == 0));
  }
  harness.AddTrialRecord(bench::FoldRepetitions(std::move(runs)));
}

void Run(bench::BenchHarness& harness, size_t des_racks, SimDuration des_duration) {
  bench::PrintHeader(
      "Figure 10(f): scalability to 32 racks (128 servers/rack, zipf-0.99, "
      "read-only)");
  std::printf("%-8s %-8s | %14s %14s %14s\n", "racks", "servers", "NoCache", "LeafCache",
              "LeafSpine");
  for (size_t racks : {1ul, 2ul, 4ul, 8ul, 16ul, 32ul}) {
    MultiRackResult none = SolveMultiRack(Base(racks, MultiRackMode::kNoCache));
    MultiRackResult leaf = SolveMultiRack(Base(racks, MultiRackMode::kLeafCache));
    MultiRackResult spine = SolveMultiRack(Base(racks, MultiRackMode::kLeafSpineCache));
    std::printf("%-8zu %-8zu | %14s %14s %14s\n", racks, racks * 128,
                bench::Qps(none.total_qps).c_str(), bench::Qps(leaf.total_qps).c_str(),
                bench::Qps(spine.total_qps).c_str());
    harness.AddTrial("racks=" + std::to_string(racks))
        .Config("racks", static_cast<double>(racks))
        .Config("servers", static_cast<double>(racks * 128))
        .Metric("nocache_qps", none.total_qps)
        .Metric("leafcache_qps", leaf.total_qps)
        .Metric("leafspine_qps", spine.total_qps);
  }

  // Who binds each configuration at 32 racks?
  MultiRackResult leaf32 = SolveMultiRack(Base(32, MultiRackMode::kLeafCache));
  MultiRackResult spine32 = SolveMultiRack(Base(32, MultiRackMode::kLeafSpineCache));
  bench::PrintNote("");
  std::printf("  at 32 racks: LeafCache limited by '%s' (tor share %s); LeafSpine limited "
              "by '%s' (spine share %s)\n",
              leaf32.limited_by.c_str(), bench::Qps(leaf32.tor_qps).c_str(),
              spine32.limited_by.c_str(), bench::Qps(spine32.spine_qps).c_str());
  bench::PrintNote("");
  bench::PrintNote("Paper: NoCache stays flat as servers are added; Leaf-Cache balances only");
  bench::PrintNote("within racks and plateaus; Leaf-Spine-Cache grows linearly.");

  bench::PrintNote("");
  bench::PrintHeader("Packet-level leaf-spine DES (4 servers/rack, spine caches warmed)");
  if (des_racks > 0) {
    RunDesTrial(harness, des_racks, des_duration);
  } else {
    for (size_t racks : {1ul, 4ul}) {
      RunDesTrial(harness, racks, des_duration);
    }
  }
}

}  // namespace
}  // namespace netcache

int main(int argc, char** argv) {
  netcache::bench::BenchHarness harness(argc, argv, "fig10f_scalability");
  netcache::ArgParser args(argc, argv);
  size_t des_racks = static_cast<size_t>(args.GetInt("des-racks", 0));
  netcache::SimDuration des_duration =
      static_cast<netcache::SimDuration>(args.GetInt("des-duration-ms", 200)) *
      netcache::kMillisecond;
  netcache::Run(harness, des_racks, des_duration);
  return harness.Finish();
}

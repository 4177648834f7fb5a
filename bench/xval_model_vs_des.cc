// Cross-validation: the closed-form capacity model vs the packet-level
// discrete-event simulation, on configurations small enough to run both.
//
// The figure benches split work between the two evaluation modes (DESIGN.md
// §4); this bench checks they agree where they overlap, which is what
// justifies using the fast model at paper scale. For each configuration we
// report the model's saturation throughput and the DES goodput of a
// loss-adaptive client, plus the cache-hit fractions both predict.

#include <cstdio>
#include <vector>

#include "bench/bench_harness.h"
#include "bench/bench_util.h"
#include "client/workload_driver.h"
#include "core/rack.h"
#include "core/saturation.h"
#include "core/sweep.h"

namespace netcache {
namespace {

struct Scenario {
  const char* name;
  double zipf;
  size_t cache;
};

struct Measured {
  double goodput;
  double hit_fraction;
  uint64_t events;
  double wall_ms;
};

constexpr size_t kServers = 8;
constexpr double kRate = 10e3;
constexpr uint64_t kKeys = 20'000;

Measured RunDes(const Scenario& sc) {
  RackConfig cfg;
  cfg.num_servers = kServers;
  cfg.num_clients = 1;
  cfg.cache_enabled = sc.cache > 0;
  cfg.switch_config.num_pipes = 1;
  cfg.switch_config.cache_capacity = 4096;
  cfg.switch_config.indexes_per_pipe = 4096;
  cfg.switch_config.stats.counter_slots = 4096;
  cfg.server_template.service_rate_qps = kRate;
  cfg.server_template.queue_capacity = 64;
  cfg.client_template.reply_timeout = 5 * kMillisecond;
  cfg.controller_config.cache_capacity = sc.cache > 0 ? sc.cache : 1;
  Rack rack(cfg);
  rack.Populate(kKeys, 128);

  WorkloadConfig wl;
  wl.num_keys = kKeys;
  wl.zipf_alpha = sc.zipf;
  wl.seed = 5;
  WorkloadGenerator gen(wl);
  if (sc.cache > 0) {
    std::vector<Key> hot;
    for (uint64_t id : gen.popularity().TopKeys(sc.cache)) {
      hot.push_back(Key::FromUint64(id));
    }
    rack.WarmCache(hot);
  }

  DriverConfig dc;
  dc.rate_qps = 30e3;
  dc.adaptive = true;  // find the saturation point like §7.4's client
  dc.adjust_interval = 100 * kMillisecond;
  dc.rate_step = 0.15;
  WorkloadDriver driver(&rack.sim(), &rack.client(0), &gen, rack.OwnerFn(), dc);
  driver.Start();
  // 4 s to converge, then 4 s of measurement.
  rack.sim().RunUntil(4 * kSecond);
  uint64_t completed0 = driver.completed();
  uint64_t hits0 = rack.tor().counters().cache_hits;
  rack.sim().RunUntil(8 * kSecond);
  driver.Stop();

  Measured m;
  m.goodput = static_cast<double>(driver.completed() - completed0) / 4.0;
  uint64_t served = driver.completed() - completed0;
  m.hit_fraction = served > 0 ? static_cast<double>(rack.tor().counters().cache_hits - hits0) /
                                    static_cast<double>(served)
                              : 0.0;
  m.events = rack.sim().events_processed();
  m.wall_ms = 0;
  return m;
}

void Run(bench::BenchHarness& harness) {
  bench::PrintHeader(
      "Cross-validation: capacity model vs packet-level DES "
      "(8 servers x 10 KQPS, 20K keys)");
  std::printf("%-24s | %11s %11s %7s | %8s %8s\n", "scenario", "model-tput", "DES-tput",
              "ratio", "mdl-hit", "DES-hit");
  const std::vector<Scenario> scenarios = {
      {"uniform, no cache", 0.0, 0},
      {"zipf-0.99, no cache", 0.99, 0},
      {"zipf-0.9, 100 cached", 0.9, 100},
      {"zipf-0.99, 100 cached", 0.99, 100},
      {"zipf-0.99, 400 cached", 0.99, 400},
  };
  // The DES runs dominate the wall clock and are independent: fan them out.
  std::vector<Measured> des_runs =
      RunSweep(scenarios, harness.sweep_options(),
               [](const Scenario& sc, uint64_t /*seed*/, size_t /*index*/) {
        auto start = std::chrono::steady_clock::now();
        Measured m = RunDes(sc);
        std::chrono::duration<double, std::milli> elapsed =
            std::chrono::steady_clock::now() - start;
        m.wall_ms = elapsed.count();
        return m;
      });
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& sc = scenarios[i];
    SaturationConfig mc;
    mc.num_partitions = kServers;
    mc.server_rate_qps = kRate;
    mc.num_keys = kKeys;
    mc.zipf_alpha = sc.zipf;
    mc.cache_size = sc.cache;
    mc.exact_ranks = 4096;
    mc.switch_capacity_qps = 1e9;  // the DES switch is unbounded here
    SaturationResult model = SolveSaturation(mc);
    const Measured& des = des_runs[i];
    std::printf("%-24s | %11s %11s %6.2f | %7.1f%% %7.1f%%\n", sc.name,
                bench::Qps(model.total_qps).c_str(), bench::Qps(des.goodput).c_str(),
                des.goodput / model.total_qps, 100 * model.cache_hit_fraction,
                100 * des.hit_fraction);
    bench::TrialRecord rec;
    rec.label = sc.name;
    rec.Config("zipf_alpha", sc.zipf)
        .Config("cache_size", static_cast<double>(sc.cache))
        .Metric("model_qps", model.total_qps)
        .Metric("des_qps", des.goodput)
        .Metric("des_model_ratio", des.goodput / model.total_qps)
        .Metric("model_hit_fraction", model.cache_hit_fraction)
        .Metric("des_hit_fraction", des.hit_fraction);
    rec.wall_ms = des.wall_ms;
    rec.events = des.events;
    harness.AddTrialRecord(std::move(rec));
  }
  bench::PrintNote("");
  bench::PrintNote("The adaptive client settles slightly below the analytic saturation");
  bench::PrintNote("point (it backs off at 1% loss), so ratios a bit under 1.0 are");
  bench::PrintNote("expected; hit fractions should agree closely. This agreement is what");
  bench::PrintNote("licenses the capacity model at the paper's 128-server scale.");
}

}  // namespace
}  // namespace netcache

int main(int argc, char** argv) {
  netcache::bench::BenchHarness harness(argc, argv, "xval_model_vs_des");
  netcache::Run(harness);
  return harness.Finish();
}

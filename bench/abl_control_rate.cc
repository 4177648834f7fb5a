// Ablation: how the control-plane update rate bounds adaptation (§4.3).
//
// The paper's cache updates ride a control plane limited to ~10K table
// updates/second. This bench repeats the Fig 11(a) hot-in experiment while
// sweeping the per-operation control latency across two orders of
// magnitude, and reports the goodput in the seconds after the popularity
// flip — showing recovery stretching out as the controller slows.

#include <cstdio>
#include <vector>

#include "bench/bench_harness.h"
#include "bench/bench_util.h"
#include "client/workload_driver.h"
#include "core/rack.h"
#include "core/sweep.h"

namespace netcache {
namespace {

constexpr uint64_t kNumKeys = 20'000;
constexpr size_t kCacheItems = 300;

struct HotInResult {
  std::vector<double> bins;
  uint64_t events = 0;
  double wall_ms = 0;
};

std::vector<double> RunHotIn(SimDuration control_op_latency,
                             uint64_t* events_out) {
  RackConfig cfg;
  cfg.num_servers = 8;
  cfg.num_clients = 1;
  cfg.switch_config.num_pipes = 1;
  cfg.switch_config.cache_capacity = 4096;
  cfg.switch_config.indexes_per_pipe = 4096;
  cfg.switch_config.stats.counter_slots = 4096;
  cfg.switch_config.stats.hh.hot_threshold = 48;
  cfg.server_template.service_rate_qps = 10e3;
  cfg.server_template.queue_capacity = 64;
  cfg.client_template.reply_timeout = 5 * kMillisecond;
  cfg.controller_config.cache_capacity = kCacheItems;
  cfg.controller_config.control_op_latency = control_op_latency;
  cfg.controller_config.stats_epoch = 1 * kSecond;
  Rack rack(cfg);
  rack.Populate(kNumKeys, 128);

  WorkloadConfig wl;
  wl.num_keys = kNumKeys;
  wl.zipf_alpha = 0.99;
  wl.seed = 11;
  WorkloadGenerator gen(wl);
  std::vector<Key> hot;
  for (uint64_t id : gen.popularity().TopKeys(kCacheItems)) {
    hot.push_back(Key::FromUint64(id));
  }
  rack.WarmCache(hot);
  rack.StartController();

  DriverConfig dc;
  dc.rate_qps = 60e3;
  dc.adaptive = true;
  dc.adjust_interval = 100 * kMillisecond;
  dc.rate_step = 0.1;
  dc.min_rate_qps = 5e3;
  dc.bin_width = 1 * kSecond;
  WorkloadDriver driver(&rack.sim(), &rack.client(0), &gen, rack.OwnerFn(), dc);
  driver.Start();

  // Steady for 5 s, then one radical hot-in of 150 keys, then 7 more seconds.
  rack.sim().ScheduleAt(5 * kSecond, [&gen] { gen.popularity().HotIn(150); });
  rack.sim().RunUntil(12 * kSecond);
  driver.Stop();

  std::vector<double> bins;
  for (size_t i = 0; i < 12; ++i) {
    bins.push_back(driver.goodput().BinSum(i));
  }
  *events_out = rack.sim().events_processed();
  return bins;
}

void Run(bench::BenchHarness& harness) {
  bench::PrintHeader(
      "Ablation: control-plane speed vs hot-in recovery (8 x 10 KQPS, 300-item "
      "cache, 150-key hot-in at t=5s)");
  std::printf("%-16s |", "ctrl op latency");
  for (int s = 3; s < 12; ++s) {
    std::printf("  t=%-2ds", s);
  }
  std::printf("\n");
  const std::vector<SimDuration> latencies = {100 * kMicrosecond, 1 * kMillisecond,
                                              10 * kMillisecond, 50 * kMillisecond};
  std::vector<HotInResult> results =
      RunSweep(latencies, harness.sweep_options(),
               [](SimDuration latency, uint64_t /*seed*/, size_t /*index*/) {
        auto start = std::chrono::steady_clock::now();
        HotInResult r;
        r.bins = RunHotIn(latency, &r.events);
        std::chrono::duration<double, std::milli> elapsed =
            std::chrono::steady_clock::now() - start;
        r.wall_ms = elapsed.count();
        return r;
      });
  for (size_t i = 0; i < latencies.size(); ++i) {
    const std::vector<double>& bins = results[i].bins;
    std::printf("%11.1f ms   |", static_cast<double>(latencies[i]) / 1e6);
    for (int s = 3; s < 12; ++s) {
      std::printf(" %5.0fK", bins[static_cast<size_t>(s)] / 1e3);
    }
    std::printf("\n");
    // Recovery quality: goodput in the two seconds after the flip relative to
    // the pre-flip second.
    double pre = bins[4];
    double post = (bins[5] + bins[6]) / 2.0;
    char label[48];
    std::snprintf(label, sizeof(label), "ctrl_latency_ms=%.1f",
                  static_cast<double>(latencies[i]) / 1e6);
    bench::TrialRecord rec;
    rec.label = label;
    rec.Config("control_op_latency_ms", static_cast<double>(latencies[i]) / 1e6)
        .Metric("pre_flip_goodput", pre)
        .Metric("post_flip_goodput", post)
        .Metric("recovery_ratio", pre > 0 ? post / pre : 0);
    rec.wall_ms = results[i].wall_ms;
    rec.events = results[i].events;
    harness.AddTrialRecord(std::move(rec));
  }
  bench::PrintNote("");
  bench::PrintNote("At 0.1 ms/op (10K updates/s, the paper's assumption) goodput recovers");
  bench::PrintNote("within the change second. Slowing the control plane to 10-50 ms/op");
  bench::PrintNote("(200-20 updates/s) stretches the trough across many seconds — why §4.3");
  bench::PrintNote("insists on threshold-triggered, low-churn cache updates.");
}

}  // namespace
}  // namespace netcache

int main(int argc, char** argv) {
  netcache::bench::BenchHarness harness(argc, argv, "abl_control_rate");
  netcache::Run(harness);
  return harness.Finish();
}

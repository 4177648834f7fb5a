// Ablation: coherence-design choices for writes to cached keys (§4.3).
//
//   write-through (async, the paper): apply write, reply, refresh the switch
//       asynchronously — write latency = one server round trip; reads on the
//       key resume hitting the cache within ~an update RTT.
//   write-through (sync, textbook):   hold the reply until the switch acks —
//       write latency pays the extra switch round trip §4.3 avoids.
//   write-around:                     never refresh; the entry stays invalid
//       until the (slow, rate-limited) control plane re-inserts it, so reads
//       keep landing on the server — §4.3's reason to reject it.
//
// Packet-level measurement: one rack, one cached hot key, a read stream plus
// periodic writes to that key; report write latency and read hit ratio.

#include <cstdio>
#include <vector>

#include "bench/bench_harness.h"
#include "bench/bench_util.h"
#include "core/rack.h"
#include "core/sweep.h"

namespace netcache {
namespace {

Key K(uint64_t id) { return Key::FromUint64(id); }

struct Outcome {
  double write_avg_us = 0;
  double write_p99_us = 0;
  double read_hit_pct = 0;
  uint64_t events = 0;
  double wall_ms = 0;
};

Outcome RunMode(CoherenceMode mode) {
  RackConfig cfg;
  cfg.num_servers = 4;
  cfg.num_clients = 1;
  cfg.switch_config.num_pipes = 1;
  cfg.switch_config.cache_capacity = 1024;
  cfg.switch_config.indexes_per_pipe = 1024;
  cfg.switch_config.stats.counter_slots = 1024;
  cfg.server_template.service_rate_qps = 200e3;
  cfg.server_template.coherence = mode;
  cfg.client_template.reply_timeout = 20 * kMillisecond;
  cfg.controller_config.cache_capacity = 64;
  // Deliberately slow control plane so write-around's reliance on
  // controller re-insertion is visible.
  cfg.controller_config.control_op_latency = 10 * kMillisecond;
  Rack rack(cfg);
  rack.Populate(1000, 64);
  rack.WarmCache({K(1)});
  rack.StartController();

  Histogram write_latency;
  uint64_t reads_sent = 0;
  Simulator& sim = rack.sim();
  // 100 ms of traffic: a read every 10 us, a write every 1 ms.
  for (int i = 0; i < 10000; ++i) {
    sim.ScheduleAt(static_cast<SimTime>(i) * 10 * kMicrosecond, [&rack, &reads_sent] {
      ++reads_sent;
      rack.client(0).Get(rack.OwnerOf(K(1)), K(1), [](const Status&, const Value&) {});
    });
  }
  for (int i = 0; i < 100; ++i) {
    sim.ScheduleAt(static_cast<SimTime>(i) * 1 * kMillisecond + 5 * kMicrosecond,
                   [&rack, &sim, &write_latency, i] {
                     SimTime start = sim.Now();
                     rack.client(0).Put(rack.OwnerOf(K(1)), K(1),
                                        Value::Filler(1000 + static_cast<uint64_t>(i), 64),
                                        [&write_latency, &sim, start](const Status& s, const Value&) {
                                          if (s.ok()) {
                                            write_latency.Record(sim.Now() - start);
                                          }
                                        });
                   });
  }
  sim.RunUntil(120 * kMillisecond);

  Outcome out;
  out.write_avg_us = write_latency.Mean() / 1e3;
  out.write_p99_us = static_cast<double>(write_latency.Quantile(0.99)) / 1e3;
  out.read_hit_pct = 100.0 * static_cast<double>(rack.tor().counters().cache_hits) /
                     static_cast<double>(reads_sent);
  out.events = rack.sim().events_processed();
  return out;
}

void Run(bench::BenchHarness& harness) {
  bench::PrintHeader(
      "Ablation: §4.3 coherence designs (1 hot cached key, 100 reads/ms + "
      "1 write/ms, 10 ms/op control plane)");
  std::printf("%-28s | %12s %12s %12s\n", "design", "write avg", "write p99", "read hits");
  struct Row {
    const char* name;
    const char* label;
    CoherenceMode mode;
  };
  const std::vector<Row> rows = {
      {"write-through async (paper)", "write-through-async", CoherenceMode::kWriteThroughAsync},
      {"write-through sync", "write-through-sync", CoherenceMode::kWriteThroughSync},
      {"write-around", "write-around", CoherenceMode::kWriteAround},
  };
  std::vector<Outcome> outcomes =
      RunSweep(rows, harness.sweep_options(),
               [](const Row& row, uint64_t /*seed*/, size_t /*index*/) {
        auto start = std::chrono::steady_clock::now();
        Outcome o = RunMode(row.mode);
        std::chrono::duration<double, std::milli> elapsed =
            std::chrono::steady_clock::now() - start;
        o.wall_ms = elapsed.count();
        return o;
      });
  for (size_t i = 0; i < rows.size(); ++i) {
    const Outcome& o = outcomes[i];
    std::printf("%-28s | %10.1fus %10.1fus %11.1f%%\n", rows[i].name, o.write_avg_us,
                o.write_p99_us, o.read_hit_pct);
    bench::TrialRecord rec;
    rec.label = rows[i].label;
    rec.Metric("write_avg_us", o.write_avg_us)
        .Metric("write_p99_us", o.write_p99_us)
        .Metric("read_hit_pct", o.read_hit_pct);
    rec.wall_ms = o.wall_ms;
    rec.events = o.events;
    harness.AddTrialRecord(std::move(rec));
  }
  bench::PrintNote("");
  bench::PrintNote("The async design keeps write latency at the plain server round trip AND");
  bench::PrintNote("read hits high (the invalid window is one update RTT). Sync pays an");
  bench::PrintNote("extra switch round trip per write; write-around forfeits the cache until");
  bench::PrintNote("the control plane re-inserts — exactly §4.3's reasoning.");
}

}  // namespace
}  // namespace netcache

int main(int argc, char** argv) {
  netcache::bench::BenchHarness harness(argc, argv, "abl_coherence");
  netcache::Run(harness);
  return harness.Finish();
}

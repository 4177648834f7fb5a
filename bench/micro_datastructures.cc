// Microbenchmarks of the core data structures (google-benchmark): the
// components whose per-packet cost determines the software pipeline rate.
//
// The *EventQueue* and *PacketAlloc* groups bound the simulator hot path:
// BM_EventQueue_StdFunction replays the heap discipline the simulator used
// before the zero-allocation rework (std::function events, swap-based sift)
// while BM_EventQueue_InlineFunction drives the real Simulator; their ratio
// is the events/sec speedup the rework bought. Run with
// --benchmark_min_time=0.2 on older google-benchmark builds. The harness
// trial EventQueue/workload_mix drives the same queue under the measured
// schedule-ahead mix of the rack and fabric workloads (see its comment).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bench/bench_harness.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/zipf.h"
#include "dataplane/netcache_switch.h"
#include "dataplane/value_store.h"
#include "kvstore/flat_table.h"
#include "kvstore/hash_table.h"
#include "kvstore/kv_store.h"
#include "net/packet_pool.h"
#include "net/simulator.h"
#include "proto/key_digest.h"
#include "proto/packet.h"
#include "sketch/bloom.h"
#include "sketch/count_min.h"
#include "workload/generator.h"

namespace netcache {
namespace {

void BM_CountMinUpdate(benchmark::State& state) {
  CountMinSketch cms(4, 64 * 1024, 1);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cms.Update(Key::FromUint64(rng.NextBounded(1 << 20))));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CountMinUpdate);

void BM_BloomTestAndSet(benchmark::State& state) {
  BloomFilter bf(3, 256 * 1024, 2);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bf.TestAndSet(Key::FromUint64(rng.NextBounded(1 << 20))));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BloomTestAndSet);

// --- Sketch hashing: per-probe seeded hashes vs one digest + KM probes ---
//
// The pre-digest pipeline hashed the 16-byte key once per sketch row and
// Bloom partition (4 + 3 = 7 seeded hashes per miss-path packet). The digest
// hashes once at ingress and derives every index with one multiply-add
// (Kirsch-Mitzenmacher). These two benches measure exactly that trade on the
// same 7-index workload; the harness trials below gate the ratio in CI.

constexpr size_t kSketchProbes = 7;
constexpr uint64_t kSketchMask = 64 * 1024 - 1;

void BM_SketchHash_PerProbe(benchmark::State& state) {
  Rng rng(21);
  Key key = Key::FromUint64(rng.Next());
  uint64_t acc = 0;
  for (auto _ : state) {
    for (uint64_t seed = 0; seed < kSketchProbes; ++seed) {
      acc += SeededHashBytes(key.bytes.data(), key.bytes.size(), seed) & kSketchMask;
    }
    key = Key::FromUint64(acc);  // serialize iterations
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SketchHash_PerProbe);

void BM_SketchHash_Digest(benchmark::State& state) {
  Rng rng(21);
  Key key = Key::FromUint64(rng.Next());
  uint64_t acc = 0;
  for (auto _ : state) {
    KeyDigest d = KeyDigest::Of(key);
    for (uint64_t seed = 0; seed < kSketchProbes; ++seed) {
      acc += d.Probe(seed) & kSketchMask;
    }
    key = Key::FromUint64(acc);
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SketchHash_Digest);

void BM_HashDynFind(benchmark::State& state) {
  HashDyn<Key, uint64_t, KeyHasher> table;
  for (uint64_t i = 0; i < 64 * 1024; ++i) {
    table.Upsert(Key::FromUint64(i), i);
  }
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Find(Key::FromUint64(rng.NextBounded(64 * 1024))));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HashDynFind);

void BM_FlatTableFind(benchmark::State& state) {
  FlatTable<Key, uint64_t, KeyHasher> table;
  for (uint64_t i = 0; i < 64 * 1024; ++i) {
    table.Upsert(Key::FromUint64(i), i);
  }
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Find(Key::FromUint64(rng.NextBounded(64 * 1024))));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FlatTableFind);

// Same probe workload near the 7/8 growth ceiling (~87% load), where the
// robin-hood chains are long enough that the load-aware dispatch in
// FlatTable::Locate switches to the 16-way grouped control-byte scan when a
// SIMD level is active. BM_FlatTableFind above sits at 50% load and takes the
// scalar walk in both modes; this is the regime the grouped probe exists for.
void BM_FlatTableFindHighLoad(benchmark::State& state) {
  FlatTable<Key, uint64_t, KeyHasher> table;
  constexpr uint64_t kKeys = 57000;  // 65536-slot table, no growth past it
  for (uint64_t i = 0; i < kKeys; ++i) {
    table.Upsert(Key::FromUint64(i), i);
  }
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Find(Key::FromUint64(rng.NextBounded(kKeys))));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FlatTableFindHighLoad);

void BM_StdUnorderedMapFind(benchmark::State& state) {
  std::unordered_map<Key, uint64_t, KeyHasher> table;
  for (uint64_t i = 0; i < 64 * 1024; ++i) {
    table[Key::FromUint64(i)] = i;
  }
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(Key::FromUint64(rng.NextBounded(64 * 1024))));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_StdUnorderedMapFind);

void BM_ValueStoreRead(benchmark::State& state) {
  ValueStore vs(8, 64 * 1024);
  Value v = Value::Filler(1, 128);
  for (size_t i = 0; i < 64 * 1024; ++i) {
    vs.WriteValue(0xff, i, v);
  }
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vs.ReadValue(0xff, rng.NextBounded(64 * 1024), 128));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ValueStoreRead);

void BM_ZipfSample(benchmark::State& state) {
  ZipfRejectionInversion zipf(100'000'000, 0.99);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ZipfSample);

void BM_PacketSerializeParse(benchmark::State& state) {
  Packet pkt = MakePut(1, 2, Key::FromUint64(3), Value::Filler(3, 128), 4);
  for (auto _ : state) {
    auto bytes = SerializePacket(pkt);
    auto back = ParsePacket(bytes);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PacketSerializeParse);

// --- Simulator event-queue hot path ---
//
// Both variants run the same workload: a rolling backlog of 64 events, each
// executing a 32-byte-capture closure and rescheduling itself at a random
// future time. items/s is therefore Mevents/s of the event loop.

// Pre-rework representation: std::function events (32-byte captures exceed
// libstdc++'s 16-byte SBO, so every schedule heap-allocates) in a (time, seq)
// min-heap maintained with the standard swap-based push/pop_heap.
void BM_EventQueue_StdFunction(benchmark::State& state) {
  struct Ev {
    uint64_t at;
    uint64_t seq;
    std::function<void()> fn;
  };
  auto later = [](const Ev& x, const Ev& y) {
    return x.at != y.at ? x.at > y.at : x.seq > y.seq;
  };
  std::vector<Ev> heap;
  heap.reserve(128);
  uint64_t now = 0;
  uint64_t seq = 0;
  uint64_t sink = 0;
  Rng rng(11);
  uint64_t* sink_ptr = &sink;
  Rng* rng_ptr = &rng;
  auto push = [&](uint64_t delay) {
    uint64_t b = rng.Next();
    heap.push_back(Ev{now + delay, seq++, [sink_ptr, rng_ptr, b] {
                        *sink_ptr += b + rng_ptr->Next();
                      }});
    std::push_heap(heap.begin(), heap.end(), later);
  };
  for (int i = 0; i < 64; ++i) {
    push(1 + rng.NextBounded(1000));
  }
  for (auto _ : state) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Ev ev = std::move(heap.back());
    heap.pop_back();
    now = ev.at;
    ev.fn();
    push(1 + rng.NextBounded(1000));
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueue_StdFunction);

// Keeps a self-rescheduling event chain alive inside the real Simulator; the
// 32-byte capture stays inline in the InlineFunction small buffer.
void ScheduleChainEvent(Simulator* sim, uint64_t* sink, Rng* rng) {
  uint64_t b = rng->Next();
  sim->Schedule(1 + rng->NextBounded(1000), [sim, sink, rng, b] {
    *sink += b + rng->Next();
    ScheduleChainEvent(sim, sink, rng);
  });
}

void BM_EventQueue_InlineFunction(benchmark::State& state) {
  Simulator sim;
  uint64_t sink = 0;
  Rng rng(11);
  for (int i = 0; i < 64; ++i) {
    ScheduleChainEvent(&sim, &sink, &rng);
  }
  for (auto _ : state) {
    sim.RunUntil(sim.Now() + 32 * 1000);  // ~a few thousand events per tick
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(sim.events_processed()));
}
BENCHMARK(BM_EventQueue_InlineFunction);

// --- Packet allocation: per-simulator freelist vs operator new ---

void BM_PacketAlloc_Heap(benchmark::State& state) {
  Packet proto = MakePut(1, 2, Key::FromUint64(3), Value::Filler(3, 128), 4);
  for (auto _ : state) {
    Packet* p = new Packet(proto);
    benchmark::DoNotOptimize(p);
    delete p;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PacketAlloc_Heap);

void BM_PacketAlloc_Pool(benchmark::State& state) {
  PacketPool pool;
  Packet proto = MakePut(1, 2, Key::FromUint64(3), Value::Filler(3, 128), 4);
  for (auto _ : state) {
    Packet* p = pool.Acquire();
    *p = proto;
    benchmark::DoNotOptimize(p);
    pool.Release(p);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PacketAlloc_Pool);

// --- Switch route table: FlatTable vs std::unordered_map on IpAddress ---
//
// Note: sequential uint32 keys under libstdc++'s identity std::hash are
// unordered_map's best case (one node per bucket, allocation-order locality).
// FlatTable pays a Mix64 per probe but is immune to degenerate key patterns
// and wins on the 16-byte Key tables above; the switch uses it for both.

void BM_RouteStdUnorderedMapFind(benchmark::State& state) {
  std::unordered_map<IpAddress, uint32_t> routes;
  for (uint32_t i = 0; i < 4096; ++i) {
    routes[0x0a000000u + i] = i % 64;
  }
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        routes.find(0x0a000000u + static_cast<uint32_t>(rng.NextBounded(4096))));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RouteStdUnorderedMapFind);

void BM_RouteFlatTableFind(benchmark::State& state) {
  FlatTable<IpAddress, uint32_t, UintHasher> routes;
  for (uint32_t i = 0; i < 4096; ++i) {
    routes.Upsert(0x0a000000u + i, i % 64);
  }
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        routes.Find(0x0a000000u + static_cast<uint32_t>(rng.NextBounded(4096))));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RouteFlatTableFind);

// --- Harness trials (machine-readable, gated by scripts/bench_regress.py) ---
//
// SketchHash (one-hash digest vs per-probe seeded hashing) and Burst/single
// (the switch pipeline, ProcessPacket per packet, on a 70/30 hit/miss
// stream) feed the CI perf gate. Each records a deterministic
// checksum/counter metric — byte-stable across machines — plus wall_ms/events
// for the --perf one-sided comparison.

constexpr size_t kHashTrialKeys = 2'000'000;

void RunSketchHashTrials(bench::BenchHarness& harness) {
  {
    auto& trial = harness.AddTrial("SketchHash/per_probe");
    trial.Config("keys", static_cast<double>(kHashTrialKeys))
        .Config("probes", static_cast<double>(kSketchProbes));
    Rng rng(31);
    uint64_t acc = 0;
    bench::TrialTimer timer(&trial);
    for (size_t i = 0; i < kHashTrialKeys; ++i) {
      Key key = Key::FromUint64(rng.Next());
      for (uint64_t seed = 0; seed < kSketchProbes; ++seed) {
        acc += SeededHashBytes(key.bytes.data(), key.bytes.size(), seed) & kSketchMask;
      }
    }
    timer.SetEvents(kHashTrialKeys);
    trial.Metric("checksum", static_cast<double>(acc & 0xffffffff));
  }
  {
    auto& trial = harness.AddTrial("SketchHash/digest");
    trial.Config("keys", static_cast<double>(kHashTrialKeys))
        .Config("probes", static_cast<double>(kSketchProbes));
    Rng rng(31);
    uint64_t acc = 0;
    bench::TrialTimer timer(&trial);
    for (size_t i = 0; i < kHashTrialKeys; ++i) {
      Key key = Key::FromUint64(rng.Next());
      KeyDigest d = KeyDigest::Of(key);
      for (uint64_t seed = 0; seed < kSketchProbes; ++seed) {
        acc += d.Probe(seed) & kSketchMask;
      }
    }
    timer.SetEvents(kHashTrialKeys);
    trial.Metric("checksum", static_cast<double>(acc & 0xffffffff));
  }
}

constexpr IpAddress kTrialClient = 0x0b000001;
constexpr IpAddress kTrialServer = 0x0a000001;
constexpr size_t kTrialCached = 4096;
constexpr size_t kTrialPackets = 2048;
constexpr size_t kTrialPasses = 100;
constexpr size_t kTrialBurst = 32;

std::unique_ptr<NetCacheSwitch> MakeTrialSwitch() {
  SwitchConfig cfg;
  cfg.num_pipes = 1;
  cfg.ports_per_pipe = 64;
  cfg.cache_capacity = 8 * 1024;
  cfg.indexes_per_pipe = 8 * 1024;
  cfg.stats.counter_slots = 8 * 1024;
  auto sw = std::make_unique<NetCacheSwitch>(nullptr, "trial", cfg);
  NC_CHECK(sw->AddRoute(kTrialServer, 0).ok());
  NC_CHECK(sw->AddRoute(kTrialClient, 32).ok());
  for (uint64_t id = 0; id < kTrialCached; ++id) {
    NC_CHECK(sw->InsertCacheEntry(Key::FromUint64(id),
                                  WorkloadGenerator::ValueFor(id, 128), kTrialServer)
                 .ok());
  }
  return sw;
}

// 70% hits / 30% misses; the recorded counters are deterministic and gated
// at the tight default metric tolerance.
std::vector<Packet> TrialPackets() {
  Rng rng(32);
  std::vector<Packet> pkts;
  pkts.reserve(kTrialPackets);
  for (uint32_t i = 0; i < kTrialPackets; ++i) {
    uint64_t id = rng.NextBounded(10) < 7 ? rng.NextBounded(kTrialCached)
                                          : 1'000'000 + rng.NextBounded(1 << 20);
    pkts.push_back(MakeGet(kTrialClient, kTrialServer, Key::FromUint64(id), i));
  }
  return pkts;
}

void RunBurstTrials(bench::BenchHarness& harness) {
  const std::vector<Packet> pkts = TrialPackets();
  {
    auto& trial = harness.AddTrial("Burst/single");
    trial.Config("packets", static_cast<double>(kTrialPackets))
        .Config("passes", static_cast<double>(kTrialPasses));
    auto sw = MakeTrialSwitch();
    std::vector<NetCacheSwitch::Emit> emits;
    bench::TrialTimer timer(&trial);
    for (size_t pass = 0; pass < kTrialPasses; ++pass) {
      for (const Packet& p : pkts) {
        emits.clear();
        sw->ProcessPacket(p, 32, emits);
        benchmark::DoNotOptimize(emits);
      }
    }
    timer.SetEvents(kTrialPasses * kTrialPackets);
    trial.Metric("packets", static_cast<double>(sw->counters().packets))
        .Metric("cache_hits", static_cast<double>(sw->counters().cache_hits));
  }
}

// --- ServerBurst / TableGroupProbe trials: the SIMD kernels at the native
// dispatch level vs forced-scalar (ScopedScalarSimd).
//
// ServerBurst drives the storage server's ingress stages:
// simd::DigestGather16 over the burst's keys, digest-derived core steering,
// the one-sweep bucket prefetch, then in-order KvStore::GetInto.
// TableGroupProbe drives the FlatTable's 16-way control-byte group scan.
// Each group runs a forced-scalar leg and a native-dispatch leg over the
// identical stream; the checksums must agree bit-for-bit (NC_CHECKed every
// run) — the bit-equivalence contract of common/simd.h — and wall_ms/events
// feed the --perf gate. On hosts without AVX2 the "simd" leg degenerates to
// a second scalar run and the JSON's config.simd_level records that, so
// bench_regress.py refuses cross-host comparisons.

constexpr size_t kServerTrialBurst = 32;
constexpr size_t kServerTrialKeys = 64 * 1024;
constexpr size_t kServerTrialReads = 1'000'000;
constexpr size_t kServerTrialCores = 8;
constexpr uint64_t kServerTrialCoreSeed = 7;

uint64_t RunServerBurstPass(bench::TrialRecord& trial) {
  KvStore store;
  for (uint64_t i = 0; i < kServerTrialKeys; ++i) {
    store.Put(Key::FromUint64(i), WorkloadGenerator::ValueFor(i, 128));
  }
  Rng rng(52);
  Key keys[kServerTrialBurst];
  const uint8_t* key_ptrs[kServerTrialBurst];
  uint64_t h1[kServerTrialBurst];
  uint64_t h2[kServerTrialBurst];
  Value value;
  uint64_t acc = 0;
  bench::TrialTimer timer(&trial);
  for (size_t base = 0; base < kServerTrialReads; base += kServerTrialBurst) {
    for (size_t i = 0; i < kServerTrialBurst; ++i) {
      keys[i] = Key::FromUint64(rng.NextBounded(kServerTrialKeys));
      key_ptrs[i] = keys[i].bytes.data();
    }
    simd::DigestGather16(key_ptrs, kServerTrialBurst, h1, h2);
    // The one-sweep bucket warm, then in-order steering + lookups — the shape
    // of StorageServer::HandleBurst stages 1.5 and 2.
    for (size_t i = 0; i < kServerTrialBurst; ++i) {
      store.Prefetch(h1[i]);
    }
    for (size_t i = 0; i < kServerTrialBurst; ++i) {
      KeyDigest d{h1[i], h2[i]};
      acc += d.Probe(kServerTrialCoreSeed) % kServerTrialCores;
      bool hit = store.GetInto(keys[i], h1[i], &value);
      NC_CHECK(hit);
      acc += value.data()[0] + value.size();
    }
  }
  timer.SetEvents(kServerTrialReads);
  return acc;
}

void RunServerBurstTrials(bench::BenchHarness& harness) {
  uint64_t scalar_acc = 0;
  uint64_t simd_acc = 0;
  {
    auto& trial = harness.AddTrial("ServerBurst/scalar");
    trial.Config("reads", static_cast<double>(kServerTrialReads))
        .Config("burst", static_cast<double>(kServerTrialBurst));
    ScopedScalarSimd scalar;
    scalar_acc = RunServerBurstPass(trial);
    trial.Metric("checksum", static_cast<double>(scalar_acc & 0xffffffff));
  }
  {
    auto& trial = harness.AddTrial("ServerBurst/simd");
    trial.Config("reads", static_cast<double>(kServerTrialReads))
        .Config("burst", static_cast<double>(kServerTrialBurst));
    simd_acc = RunServerBurstPass(trial);
    trial.Metric("checksum", static_cast<double>(simd_acc & 0xffffffff));
  }
  NC_CHECK(scalar_acc == simd_acc);
}

constexpr size_t kProbeTrialEntries = 50'000;
constexpr size_t kProbeTrialLookups = 2'000'000;

uint64_t RunTableProbePass(bench::TrialRecord& trial) {
  FlatTable<Key, uint32_t, KeyHasher> t;
  for (uint64_t i = 0; i < kProbeTrialEntries; ++i) {
    t.Upsert(Key::FromUint64(i), static_cast<uint32_t>(i));
  }
  Rng rng(43);
  uint64_t acc = 0;
  bench::TrialTimer timer(&trial);
  for (size_t i = 0; i < kProbeTrialLookups; ++i) {
    // ~20% misses so the group scan's empty-termination path is exercised.
    uint64_t id = rng.NextBounded(kProbeTrialEntries * 5 / 4);
    const uint32_t* v = t.Find(Key::FromUint64(id));
    acc += v != nullptr ? *v + 1 : 0;
  }
  timer.SetEvents(kProbeTrialLookups);
  return acc;
}

void RunTableGroupProbeTrials(bench::BenchHarness& harness) {
  uint64_t scalar_acc = 0;
  uint64_t simd_acc = 0;
  {
    auto& trial = harness.AddTrial("TableGroupProbe/scalar");
    trial.Config("entries", static_cast<double>(kProbeTrialEntries))
        .Config("lookups", static_cast<double>(kProbeTrialLookups));
    ScopedScalarSimd scalar;
    scalar_acc = RunTableProbePass(trial);
    trial.Metric("checksum", static_cast<double>(scalar_acc & 0xffffffff));
  }
  {
    auto& trial = harness.AddTrial("TableGroupProbe/simd");
    trial.Config("entries", static_cast<double>(kProbeTrialEntries))
        .Config("lookups", static_cast<double>(kProbeTrialLookups));
    simd_acc = RunTableProbePass(trial);
    trial.Metric("checksum", static_cast<double>(simd_acc & 0xffffffff));
  }
  NC_CHECK(scalar_acc == simd_acc);
}

// --- Event queue under the simulator's own schedule-ahead mix ---
//
// 32 self-rescheduling work chains (about the event_queue_peak of the
// perfbench fabric_leafspine workload) draw each reschedule distance from
// the schedule-ahead histogram measured on the rack and fabric workloads: a
// third serialization/tx-done gaps under 128 ns, link hops of 0.4-1 us,
// 800 ns switch emits and 5-20 us server service completions. 8 more chains
// re-arm every 10 ms, like one reply timer per client: the far heap's
// traffic. events_per_sec is the dispatch rate of the real Simulator queue,
// closures included.
struct MixChain {
  Simulator* sim;
  Rng* rng;
  uint64_t* sink;
  bool timer;
  void Fire() {
    *sink += sim->Now();
    SimDuration d = 10 * kMillisecond;
    if (!timer) {
      const uint64_t r = rng->NextBounded(1000);
      d = r < 330   ? 16 + rng->NextBounded(112)
          : r < 630 ? 400 + rng->NextBounded(600)
          : r < 800 ? 800
                    : 5 * kMicrosecond + rng->NextBounded(15 * kMicrosecond);
    }
    sim->Schedule(d, [this] { Fire(); });
  }
};

void RunEventQueueTrials(bench::BenchHarness& harness) {
  constexpr int kWorkChains = 32;
  constexpr int kTimerChains = 8;
  constexpr uint64_t kEvents = 4'000'000;
  auto& trial = harness.AddTrial("EventQueue/workload_mix");
  trial.Config("work_chains", kWorkChains)
      .Config("timer_chains", kTimerChains)
      .Config("events", static_cast<double>(kEvents));
  Simulator sim;
  Rng rng(17);
  uint64_t sink = 0;
  std::vector<MixChain> chains;
  for (int i = 0; i < kWorkChains + kTimerChains; ++i) {
    chains.push_back(MixChain{&sim, &rng, &sink, /*timer=*/i >= kWorkChains});
  }
  for (MixChain& c : chains) {
    sim.Schedule(rng.NextBounded(1000), [&c] { c.Fire(); });
  }
  {
    bench::TrialTimer timer(&trial);
    // 100 us slices hold about a thousand events each, so the RunUntil
    // calls cost nothing next to the dispatch they bracket.
    while (sim.events_processed() < kEvents) {
      sim.RunUntil(sim.Now() + 100 * kMicrosecond);
    }
    timer.SetEvents(sim.events_processed());
  }
  trial.Metric("sim_time_ms", static_cast<double>(sim.Now()) / 1e6)
      .Metric("checksum_mod_1e6", static_cast<double>(sink % 1'000'000));
}

}  // namespace
}  // namespace netcache

int main(int argc, char** argv) {
  netcache::bench::BenchHarness harness(argc, argv, "micro_datastructures");
  netcache::RunSketchHashTrials(harness);
  netcache::RunBurstTrials(harness);
  netcache::RunServerBurstTrials(harness);
  netcache::RunTableGroupProbeTrials(harness);
  netcache::RunEventQueueTrials(harness);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return harness.Finish();
}

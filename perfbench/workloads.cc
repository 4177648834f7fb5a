#include "perfbench/workloads.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "client/workload_driver.h"
#include "common/histogram.h"
#include "common/profiler.h"
#include "workload/generator.h"

namespace netcache::perfbench {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Why each workload exists is recorded in BENCHMARK.json; the sizing here
// keeps every server below saturation so no query is shed or times out.
std::vector<WorkloadSpec> BuildSpecs() {
  std::vector<WorkloadSpec> specs;

  // One rack, 16 servers, one client; reads only over a 1M-key store. The
  // 10K hottest keys are cached, so about two thirds of reads hit the switch.
  WorkloadSpec read_hot;
  read_hot.name = "rack_read_hot";
  read_hot.rack.num_servers = 16;
  read_hot.rack.num_clients = 1;
  read_hot.rack.switch_config.num_pipes = 1;
  read_hot.rack.switch_config.cache_capacity = 16384;
  read_hot.rack.switch_config.indexes_per_pipe = 16384;
  read_hot.rack.switch_config.stats.counter_slots = 16384;
  read_hot.rack.server_template.service_rate_qps = 50e3;
  read_hot.rack.client_template.reply_timeout = 10 * kMillisecond;
  read_hot.rack.controller_config.cache_capacity = 10'000;
  read_hot.num_keys = 1'000'000;
  read_hot.zipf_alpha = 0.99;
  read_hot.warm_keys = 10'000;
  read_hot.start_controllers = true;
  read_hot.rate_qps = 1e6;
  read_hot.duration = 200 * kMillisecond;
  read_hot.drain = 20 * kMillisecond;
  specs.push_back(read_hot);

  // The same rack at lower skew with a smaller cache and 20% skewed writes;
  // halfway through, 200 cold keys become the hottest (Fig 11 hot-in), so
  // heavy-hitter reports drive controller insertions and evictions.
  WorkloadSpec churn = read_hot;
  churn.name = "rack_write_churn";
  churn.rack.switch_config.cache_capacity = 4096;
  churn.rack.switch_config.indexes_per_pipe = 4096;
  churn.rack.switch_config.stats.counter_slots = 4096;
  churn.rack.controller_config.cache_capacity = 2000;
  churn.zipf_alpha = 0.95;
  churn.write_ratio = 0.2;
  churn.skewed_writes = true;
  churn.warm_keys = 2000;
  churn.rate_qps = 500e3;
  churn.duration = 400 * kMillisecond;
  churn.hot_in_at = 200 * kMillisecond;
  churn.hot_in_keys = 200;
  specs.push_back(churn);

  // Leaf-spine: 16 racks x 4 servers, 4 spines each with one client and a
  // spine cache warmed with the 64 hottest of 10K keys (the fig10f DES leg).
  WorkloadSpec fabric;
  fabric.name = "fabric_leafspine";
  fabric.fabric = true;
  FabricConfig& fc = fabric.fabric_config;
  fc.num_racks = 16;
  fc.servers_per_rack = 4;
  fc.num_spines = 4;
  fc.mode = FabricCacheMode::kSpineOnly;
  for (SwitchConfig* sc : {&fc.tor_config, &fc.spine_config}) {
    sc->num_pipes = 1;
    sc->cache_capacity = 1024;
    sc->indexes_per_pipe = 1024;
    sc->stats.counter_slots = 1024;
  }
  fc.controller_config.cache_capacity = 64;
  fc.server_template.service_rate_qps = 200e3;
  fc.client_template.reply_timeout = 10 * kMillisecond;
  fc.fabric_propagation = 2 * kMicrosecond;
  fabric.num_keys = 10'000;
  fabric.zipf_alpha = 0.99;
  fabric.warm_keys = 64;
  fabric.rate_qps = 400e3;
  fabric.duration = 100 * kMillisecond;
  fabric.drain = 20 * kMillisecond;
  specs.push_back(fabric);
  return specs;
}

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = BuildSpecs();
  return specs;
}

class LibraryRack : public Topology {
 public:
  explicit LibraryRack(const RackConfig& config) : rack_(config) {
    switches.push_back(&rack_.tor());
    for (size_t i = 0; i < rack_.num_servers(); ++i) {
      servers.push_back(&rack_.server(i));
    }
    for (size_t j = 0; j < rack_.num_clients(); ++j) {
      clients.push_back(&rack_.client(j));
    }
    if (config.cache_enabled) {
      controllers.push_back(&rack_.controller());
    }
    for (size_t l = 0; l < rack_.num_links(); ++l) {
      links.push_back(&rack_.link(l));
    }
  }

  Simulator& sim() override { return rack_.sim(); }
  void Populate(uint64_t num_keys, size_t value_size) override {
    rack_.Populate(num_keys, value_size);
  }
  void Warm(const std::vector<Key>& keys) override { rack_.WarmCache(keys); }
  void StartControllers() override { rack_.StartController(); }
  IpAddress OwnerOf(const Key& key) const override { return rack_.OwnerOf(key); }
  CheckerRunner* EnableChecks() override { return &rack_.EnableInvariantChecks(); }

 private:
  Rack rack_;
};

class LibraryFabric : public Topology {
 public:
  explicit LibraryFabric(const FabricConfig& config) : fabric_(config) {
    for (size_t r = 0; r < config.num_racks; ++r) {
      switches.push_back(&fabric_.tor(r));
    }
    for (size_t s = 0; s < config.num_spines; ++s) {
      switches.push_back(&fabric_.spine(s));
    }
    for (size_t g = 0; g < fabric_.num_servers(); ++g) {
      servers.push_back(&fabric_.server(g));
    }
    for (size_t s = 0; s < fabric_.num_clients(); ++s) {
      clients.push_back(&fabric_.client(s));
    }
    size_t caching = config.mode == FabricCacheMode::kSpineOnly  ? config.num_spines
                     : config.mode == FabricCacheMode::kLeafOnly ? config.num_racks
                                                                 : 0;
    for (size_t c = 0; c < caching; ++c) {
      controllers.push_back(fabric_.controller(c));
    }
  }

  Simulator& sim() override { return fabric_.sim(); }
  void Populate(uint64_t num_keys, size_t value_size) override {
    fabric_.Populate(num_keys, value_size);
  }
  void Warm(const std::vector<Key>& keys) override { fabric_.WarmCaches(keys); }
  void StartControllers() override { fabric_.StartControllers(); }
  IpAddress OwnerOf(const Key& key) const override { return fabric_.OwnerOf(key); }

 private:
  Fabric fabric_;
};

void AddClient(Values& v, const std::string& p, const Client& c) {
  const ClientStats& s = c.stats();
  v[p + "gets_sent"] = static_cast<double>(s.gets_sent);
  v[p + "puts_sent"] = static_cast<double>(s.puts_sent);
  v[p + "deletes_sent"] = static_cast<double>(s.deletes_sent);
  v[p + "replies"] = static_cast<double>(s.replies);
  v[p + "not_found"] = static_cast<double>(s.not_found);
  v[p + "timeouts"] = static_cast<double>(s.timeouts);
  const Histogram& h = c.latency();
  std::vector<uint64_t> q = h.Quantiles({0.5, 0.9, 0.99, 0.999});
  v[p + "latency.count"] = static_cast<double>(h.count());
  v[p + "latency.min"] = static_cast<double>(h.min());
  v[p + "latency.max"] = static_cast<double>(h.max());
  v[p + "latency.mean"] = h.Mean();
  v[p + "latency.p50"] = static_cast<double>(q[0]);
  v[p + "latency.p90"] = static_cast<double>(q[1]);
  v[p + "latency.p99"] = static_cast<double>(q[2]);
  v[p + "latency.p999"] = static_cast<double>(q[3]);
}

void AddSwitch(Values& v, const std::string& p, const NetCacheSwitch& sw) {
  const SwitchCounters& c = sw.counters();
  const std::pair<const char*, uint64_t> fields[] = {
      {"packets", c.packets},
      {"netcache_queries", c.netcache_queries},
      {"reads", c.reads},
      {"writes", c.writes},
      {"cache_hits", c.cache_hits},
      {"cache_invalid", c.cache_invalid},
      {"cache_misses", c.cache_misses},
      {"invalidations", c.invalidations},
      {"cache_updates", c.cache_updates},
      {"update_rejects", c.update_rejects},
      {"write_back_hits", c.write_back_hits},
      {"hot_reports", c.hot_reports},
      {"forwarded", c.forwarded},
      {"unroutable", c.unroutable},
      {"ttl_drops", c.ttl_drops},
      {"pipe_overload_drops", c.pipe_overload_drops},
      {"sketch.sampled", sw.query_stats().activity().sampled},
      {"sketch.skipped", sw.query_stats().activity().skipped},
      {"sketch.reports", sw.query_stats().activity().reports},
      {"cache_size", sw.CacheSize()},
  };
  for (const auto& [name, value] : fields) {
    v[p + name] = static_cast<double>(value);
  }
}

void AddServer(Values& v, const std::string& p, const StorageServer& srv) {
  const ServerStats& s = srv.stats();
  const KvStore::Stats& kv = srv.store().stats();
  const std::pair<const char*, uint64_t> fields[] = {
      {"received", s.received},
      {"enqueued", s.enqueued},
      {"dropped", s.dropped},
      {"reads", s.reads},
      {"read_misses", s.read_misses},
      {"writes", s.writes},
      {"deferred_writes", s.deferred_writes},
      {"cache_updates_sent", s.cache_updates_sent},
      {"cache_update_acks", s.cache_update_acks},
      {"cache_update_rejects", s.cache_update_rejects},
      {"cache_update_retries", s.cache_update_retries},
      {"kv.gets", kv.gets},
      {"kv.hits", kv.hits},
      {"kv.puts", kv.puts},
      {"kv.deletes", kv.deletes},
      {"kv.items", srv.store().size()},
  };
  for (const auto& [name, value] : fields) {
    v[p + name] = static_cast<double>(value);
  }
}

void AddController(Values& v, const std::string& p, const CacheController& ctl) {
  const ControllerStats& s = ctl.stats();
  const std::pair<const char*, uint64_t> fields[] = {
      {"reports_received", s.reports_received},
      {"reports_ignored", s.reports_ignored},
      {"insertions", s.insertions},
      {"insertion_failures", s.insertion_failures},
      {"evictions", s.evictions},
      {"defrag_moves", s.defrag_moves},
      {"epochs", s.epochs},
      {"reject_reinserts", s.reject_reinserts},
      {"dirty_flushes", s.dirty_flushes},
      {"threshold_raises", s.threshold_raises},
      {"threshold_drops", s.threshold_drops},
      {"cached", ctl.NumCached()},
  };
  for (const auto& [name, value] : fields) {
    v[p + name] = static_cast<double>(value);
  }
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Specs()) {
    names.push_back(spec.name);
  }
  return names;
}

std::unique_ptr<Topology> MakeLibraryTopology(const WorkloadSpec& spec) {
  if (spec.fabric) {
    return std::make_unique<LibraryFabric>(spec.fabric_config);
  }
  return std::make_unique<LibraryRack>(spec.rack);
}

RepResult RunRep(const WorkloadSpec& spec, uint64_t seed,
                 const std::function<std::unique_ptr<Topology>()>& make,
                 const RepOptions& options) {
  RepResult r;
  auto start = std::chrono::steady_clock::now();
  std::unique_ptr<Topology> topo = make();
  r.build_s = SecondsSince(start);

  auto populate_start = std::chrono::steady_clock::now();
  topo->Populate(spec.num_keys, spec.value_size);
  r.populate_s = SecondsSince(populate_start);

  // One generator per client: the same popularity law, decorrelated streams.
  auto warm_start = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<WorkloadGenerator>> gens;
  for (size_t c = 0; c < topo->clients.size(); ++c) {
    WorkloadConfig wl;
    wl.num_keys = spec.num_keys;
    wl.zipf_alpha = spec.zipf_alpha;
    wl.write_ratio = spec.write_ratio;
    wl.skewed_writes = spec.skewed_writes;
    wl.value_size = spec.value_size;
    wl.seed = seed * 0x9e3779b97f4a7c15ULL + c;
    gens.push_back(std::make_unique<WorkloadGenerator>(wl));
  }
  if (spec.warm_keys > 0) {
    std::vector<Key> hot;
    for (uint64_t id : gens[0]->popularity().TopKeys(spec.warm_keys)) {
      hot.push_back(Key::FromUint64(id));
    }
    topo->Warm(hot);
  }
  if (spec.start_controllers) {
    topo->StartControllers();
  }
  r.warm_s = SecondsSince(warm_start);
  r.setup_s = SecondsSince(start);

  CheckerRunner* checker = nullptr;
  if (options.checks) {
    checker = topo->EnableChecks();
    if (checker == nullptr) {
      r.problems.push_back("invariant checkers unavailable on this topology");
    }
  }

  uint64_t reports_before = 0;
  uint64_t insertions_before = 0;
  uint64_t evictions_before = 0;
  for (const CacheController* c : topo->controllers) {
    reports_before += c->stats().reports_received;
    insertions_before += c->stats().insertions;
    evictions_before += c->stats().evictions;
  }
  uint64_t kv_gets_before = 0;
  uint64_t kv_puts_before = 0;
  for (const StorageServer* s : topo->servers) {
    kv_gets_before += s->store().stats().gets;
    kv_puts_before += s->store().stats().puts;
  }

  Topology* t = topo.get();
  auto owner = [t](const Key& key) { return t->OwnerOf(key); };
  std::vector<std::unique_ptr<WorkloadDriver>> drivers;
  DriverConfig dc;
  dc.rate_qps = spec.rate_qps;
  for (size_t c = 0; c < topo->clients.size(); ++c) {
    WorkloadGenerator* gen = gens[c].get();
    WorkloadDriver::QuerySource source;
    if (options.clocks != nullptr) {
      LayerClocks* clocks = options.clocks;
      source = [gen, clocks] {
        uint64_t begin = Profiler::NowNs();
        Query q = gen->Next();
        clocks->source_ns += Profiler::NowNs() - begin;
        ++clocks->source_calls;
        return q;
      };
    } else {
      source = [gen] { return gen->Next(); };
    }
    drivers.push_back(std::make_unique<WorkloadDriver>(&topo->sim(), topo->clients[c],
                                                       std::move(source), owner, dc));
  }
  if (spec.hot_in_keys > 0) {
    WorkloadGenerator* gen = gens[0].get();
    uint64_t n = spec.hot_in_keys;
    topo->sim().ScheduleAt(spec.hot_in_at, [gen, n] { gen->popularity().HotIn(n); });
  }

  Simulator& sim = topo->sim();
  r.config["burst_coalescing"] = sim.burst_coalescing() ? 1 : 0;
  r.config["egress_batching"] = sim.egress_batching() ? 1 : 0;
  r.config["partitioned"] = sim.partitioned() ? 1 : 0;
  r.config["sim_threads_effective"] =
      sim.partitioned() ? static_cast<double>(sim.sim_threads()) : 0;
  auto run_start = std::chrono::steady_clock::now();
  for (auto& d : drivers) {
    d->Start();
  }
  sim.RunUntil(spec.duration);
  for (auto& d : drivers) {
    d->Stop();
  }
  sim.RunUntil(spec.duration + spec.drain);
  r.run_s = SecondsSince(run_start);

  if (checker != nullptr) {
    checker->RunOnce();
    if (checker->total_violations() != 0) {
      r.problems.push_back("invariant checkers found " +
                           std::to_string(checker->total_violations()) + " violations");
    }
  }

  // ---- simulated results ----
  Values& m = r.model;
  uint64_t sent = 0;
  uint64_t completed = 0;
  uint64_t gets_sent = 0;
  uint64_t timeouts = 0;
  Histogram latency;
  for (size_t c = 0; c < topo->clients.size(); ++c) {
    const Client& client = *topo->clients[c];
    std::string p = "client." + std::to_string(c) + ".";
    AddClient(m, p, client);
    m[p + "driver.sent"] = static_cast<double>(drivers[c]->sent());
    m[p + "driver.completed"] = static_cast<double>(drivers[c]->completed());
    m[p + "driver.failed"] = static_cast<double>(drivers[c]->failed());
    sent += drivers[c]->sent();
    completed += drivers[c]->completed();
    gets_sent += client.stats().gets_sent;
    timeouts += client.stats().timeouts;
    latency.Merge(client.latency());

    const ClientStats& s = client.stats();
    uint64_t issued = s.gets_sent + s.puts_sent + s.deletes_sent;
    if (issued != s.replies + s.timeouts || client.Outstanding() != 0) {
      r.problems.push_back(p + " sent " + std::to_string(issued) + " != replies " +
                           std::to_string(s.replies) + " + timeouts " +
                           std::to_string(s.timeouts) + " (outstanding " +
                           std::to_string(client.Outstanding()) + ")");
    }
  }
  uint64_t hits = 0;
  for (size_t i = 0; i < topo->switches.size(); ++i) {
    const NetCacheSwitch& sw = *topo->switches[i];
    std::string p = "switch." + std::to_string(i) + ".";
    AddSwitch(m, p, sw);
    const SwitchCounters& c = sw.counters();
    hits += c.cache_hits;
    if (c.reads != c.cache_hits + c.cache_misses + c.cache_invalid) {
      r.problems.push_back(p + " reads " + std::to_string(c.reads) +
                           " != hits + misses + invalid " +
                           std::to_string(c.cache_hits + c.cache_misses + c.cache_invalid));
    }
  }
  uint64_t shed = 0;
  for (size_t i = 0; i < topo->servers.size(); ++i) {
    AddServer(m, "server." + std::to_string(i) + ".", *topo->servers[i]);
    shed += topo->servers[i]->stats().dropped;
  }
  for (size_t i = 0; i < topo->controllers.size(); ++i) {
    AddController(m, "controller." + std::to_string(i) + ".", *topo->controllers[i]);
  }

  // ---- simulator-internal counts ----
  Values& e = r.engine;
  e["events_processed"] = static_cast<double>(sim.events_processed());
  e["bursts_dispatched"] = static_cast<double>(sim.bursts_dispatched());
  e["burst_packets"] = static_cast<double>(sim.burst_packets());
  e["event_queue_peak"] = static_cast<double>(sim.event_queue_peak());
  uint64_t link_drops = 0;
  for (size_t l = 0; l < topo->links.size(); ++l) {
    for (int end = 0; end < 2; ++end) {
      const Link::DirectionStats& s = topo->links[l]->stats(end);
      link_drops += s.dropped + s.lost;
      if (s.offered != s.delivered + s.dropped + s.lost) {
        r.problems.push_back("link " + std::to_string(l) + " dir " + std::to_string(end) +
                             ": offered " + std::to_string(s.offered) +
                             " != delivered + dropped + lost " +
                             std::to_string(s.delivered + s.dropped + s.lost));
      }
    }
  }

  // ---- sim_* summary ----
  double duration_s = static_cast<double>(spec.duration) / 1e9;
  std::vector<uint64_t> q = latency.Quantiles({0.5, 0.999});
  r.queries = completed;
  r.sim["sim_goodput_qps"] = static_cast<double>(completed) / duration_s;
  r.sim["sim_hit_ratio"] =
      gets_sent == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(gets_sent);
  r.sim["sim_p50_latency_us"] = static_cast<double>(q[0]) / 1e3;
  r.sim["sim_p999_latency_us"] = static_cast<double>(q[1]) / 1e3;
  r.sim["sim_latency_samples"] = static_cast<double>(latency.count());
  r.sim["sim_failed_share"] =
      sent == 0 ? 0.0 : static_cast<double>(timeouts + shed) / static_cast<double>(sent);
  r.sim["sim_queries_sent"] = static_cast<double>(sent);
  r.sim["sim_failed"] = static_cast<double>(timeouts + shed);

  // ---- per-layer counts ----
  Values& L = r.layer;
  auto sum_switch = [&](auto field) {
    uint64_t total = 0;
    for (const NetCacheSwitch* sw : topo->switches) {
      total += field(*sw);
    }
    return static_cast<double>(total);
  };
  L["dataplane.invalidations"] =
      sum_switch([](const NetCacheSwitch& s) { return s.counters().invalidations; });
  L["dataplane.cache_updates"] =
      sum_switch([](const NetCacheSwitch& s) { return s.counters().cache_updates; });
  L["dataplane.update_rejects"] =
      sum_switch([](const NetCacheSwitch& s) { return s.counters().update_rejects; });
  L["dataplane.cache_hits"] =
      sum_switch([](const NetCacheSwitch& s) { return s.counters().cache_hits; });
  L["sketch.hot_reports"] =
      sum_switch([](const NetCacheSwitch& s) { return s.counters().hot_reports; });
  L["sketch.sampled"] = sum_switch(
      [](const NetCacheSwitch& s) { return s.query_stats().activity().sampled; });

  uint64_t enq_max = 0;
  uint64_t enq_total = 0;
  uint64_t deferred = 0;
  uint64_t retries = 0;
  uint64_t kv_gets = 0;
  uint64_t kv_puts = 0;
  for (const StorageServer* s : topo->servers) {
    enq_max = std::max(enq_max, s->stats().enqueued);
    enq_total += s->stats().enqueued;
    deferred += s->stats().deferred_writes;
    retries += s->stats().cache_update_retries;
    kv_gets += s->store().stats().gets;
    kv_puts += s->store().stats().puts;
  }
  double enq_mean = static_cast<double>(enq_total) / static_cast<double>(topo->servers.size());
  L["server.max_load_ratio"] = enq_mean == 0 ? 0.0 : static_cast<double>(enq_max) / enq_mean;
  L["server.shed"] = static_cast<double>(shed);
  L["server.deferred_writes"] = static_cast<double>(deferred);
  L["server.cache_update_retries"] = static_cast<double>(retries);
  L["kvstore.gets"] = static_cast<double>(kv_gets - kv_gets_before);
  L["kvstore.puts"] = static_cast<double>(kv_puts - kv_puts_before);
  L["kvstore.populate_ns_per_key"] =
      spec.num_keys == 0 ? 0.0 : r.populate_s * 1e9 / static_cast<double>(spec.num_keys);
  L["client.timeouts"] = static_cast<double>(timeouts);

  uint64_t reports = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  for (const CacheController* c : topo->controllers) {
    reports += c->stats().reports_received;
    insertions += c->stats().insertions;
    evictions += c->stats().evictions;
  }
  // Run-phase activity only: warming the cache books its insertions too.
  reports -= reports_before;
  insertions -= insertions_before;
  evictions -= evictions_before;
  L["controller.reports_received"] = static_cast<double>(reports);
  L["controller.insertions"] = static_cast<double>(insertions);
  L["controller.evictions"] = static_cast<double>(evictions);
  L["controller.useful_report_ratio"] =
      reports == 0 ? 0.0 : static_cast<double>(insertions) / static_cast<double>(reports);

  double events = static_cast<double>(sim.events_processed());
  double queries = static_cast<double>(std::max<uint64_t>(completed, 1));
  L["net.events_per_query"] = events / queries;
  L["net.packets_per_delivery"] =
      sim.bursts_dispatched() == 0 ? 0.0
                                   : static_cast<double>(sim.burst_packets()) /
                                         static_cast<double>(sim.bursts_dispatched());
  L["net.event_queue_peak"] = static_cast<double>(sim.event_queue_peak());
  L["net.link_drops"] = static_cast<double>(link_drops);
  L["core.build_s"] = r.build_s;
  L["core.populate_s"] = r.populate_s;
  L["core.warm_s"] = r.warm_s;
  return r;
}

}  // namespace netcache::perfbench

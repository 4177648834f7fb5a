#include "perfbench/timed_topology.h"

#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/profiler.h"
#include "verify/rack_checkers.h"
#include "workload/generator.h"
#include "workload/partition.h"

namespace netcache::perfbench {

namespace {

// Address plan of src/core/rack.cc and src/core/fabric.cc.
constexpr IpAddress kServerIpBase = 0x0a000000;
constexpr IpAddress kClientIpBase = 0x0b000000;
constexpr IpAddress kTorIpBase = 0xffff1000;
constexpr IpAddress kSpineIpBase = 0xffff2000;

// A node whose outermost handler calls are timed into `clock`. With
// `mute_profiler` the installed profiler is detached for the call, so the
// server stages it labels are counted only where they run outside the
// handler (service completions) and never twice.
template <typename Base>
class Timed final : public Base {
 public:
  template <typename... Args>
  Timed(NodeClock* clock, bool mute_profiler, Args&&... args)
      : Base(std::forward<Args>(args)...), clock_(clock), mute_profiler_(mute_profiler) {}

  void HandlePacket(const Packet& pkt, uint32_t in_port) override {
    if (clock_->depth > 0) {
      Base::HandlePacket(pkt, in_port);
      return;
    }
    Profiler* muted = Enter();
    uint64_t start = Profiler::NowNs();
    Base::HandlePacket(pkt, in_port);
    Leave(start, 1, muted);
  }

  void HandleBurst(BurstArrival* arrivals, size_t count) override {
    if (clock_->depth > 0) {
      Base::HandleBurst(arrivals, count);
      return;
    }
    Profiler* muted = Enter();
    uint64_t start = Profiler::NowNs();
    Base::HandleBurst(arrivals, count);
    Leave(start, count, muted);
  }

 private:
  Profiler* Enter() {
    ++clock_->depth;
    return mute_profiler_ ? InstallProfiler(nullptr) : nullptr;
  }

  void Leave(uint64_t start, size_t packets, Profiler* muted) {
    clock_->ns += Profiler::NowNs() - start;
    if (mute_profiler_) {
      InstallProfiler(muted);
    }
    --clock_->depth;
    ++clock_->calls;
    clock_->packets += packets;
    if (packets > 1) {
      clock_->burst_packets += packets;
    }
  }

  NodeClock* clock_;
  bool mute_profiler_;
};

using TimedSwitch = Timed<NetCacheSwitch>;
using TimedServer = Timed<StorageServer>;
using TimedClient = Timed<Client>;

// Copy of the Rack constructor (src/core/rack.cc) for the serial dispatcher,
// with timed nodes and without the metrics registry.
class TimedRack : public Topology {
 public:
  TimedRack(const RackConfig& config, LayerClocks* clocks)
      : config_(config), partitioner_(config.num_servers, config.partition_seed) {
    NC_CHECK(config.sim_threads == 0) << "the timed rack copies the serial wiring only";
    SwitchConfig sw = config_.switch_config;
    size_t ports_needed = config.num_servers + config.num_clients;
    if (sw.num_pipes * sw.ports_per_pipe < ports_needed) {
      sw.ports_per_pipe = (ports_needed + sw.num_pipes - 1) / sw.num_pipes;
    }
    config_.switch_config = sw;
    tor_ = std::make_unique<TimedSwitch>(&clocks->switches, false, &sim_, "tor", sw);

    for (size_t i = 0; i < config.num_servers; ++i) {
      ServerConfig sc = config.server_template;
      sc.ip = kServerIpBase + static_cast<IpAddress>(i);
      sc.switch_ip = sw.switch_ip;
      servers_.push_back(std::make_unique<TimedServer>(&clocks->servers, true, &sim_,
                                                       "server" + std::to_string(i), sc));
      auto link = std::make_unique<Link>(&sim_, config.server_link);
      link->Connect(tor_.get(), static_cast<uint32_t>(i), servers_[i].get(), 0);
      links_.push_back(std::move(link));
      NC_CHECK(tor_->AddRoute(sc.ip, static_cast<uint32_t>(i)).ok());
    }

    for (size_t j = 0; j < config.num_clients; ++j) {
      ClientConfig cc = config.client_template;
      cc.ip = kClientIpBase + static_cast<IpAddress>(j);
      clients_.push_back(std::make_unique<TimedClient>(&clocks->clients, false, &sim_,
                                                       "client" + std::to_string(j), cc));
      uint32_t port = static_cast<uint32_t>(config.num_servers + j);
      auto link = std::make_unique<Link>(&sim_, config.client_link);
      link->Connect(tor_.get(), port, clients_[j].get(), 0);
      links_.push_back(std::move(link));
      NC_CHECK(tor_->AddRoute(cc.ip, port).ok());
    }

    if (config_.cache_enabled) {
      controller_ = std::make_unique<CacheController>(
          &sim_, tor_.get(), config_.controller_config,
          [this](const Key& key) { return OwnerOf(key); });
      for (size_t i = 0; i < servers_.size(); ++i) {
        controller_->RegisterServer(kServerIpBase + static_cast<IpAddress>(i),
                                    servers_[i].get());
      }
      controllers.push_back(controller_.get());
    }

    switches.push_back(tor_.get());
    for (auto& s : servers_) {
      servers.push_back(s.get());
    }
    for (auto& c : clients_) {
      clients.push_back(c.get());
    }
    for (auto& l : links_) {
      links.push_back(l.get());
    }
  }

  Simulator& sim() override { return sim_; }

  void Populate(uint64_t num_keys, size_t value_size) override {
    for (uint64_t id = 0; id < num_keys; ++id) {
      Key key = Key::FromUint64(id);
      servers_[partitioner_.PartitionOf(key)]->store().Put(
          key, WorkloadGenerator::ValueFor(id, value_size));
    }
  }
  void Warm(const std::vector<Key>& keys) override { controller_->Warm(keys); }
  void StartControllers() override { controller_->Start(); }
  IpAddress OwnerOf(const Key& key) const override {
    return kServerIpBase + static_cast<IpAddress>(partitioner_.PartitionOf(key));
  }

 private:
  RackConfig config_;
  Simulator sim_;
  HashPartitioner partitioner_;
  std::unique_ptr<TimedSwitch> tor_;
  std::vector<std::unique_ptr<TimedServer>> servers_;
  std::vector<std::unique_ptr<TimedClient>> clients_;
  std::vector<std::unique_ptr<Link>> links_;
  std::unique_ptr<CacheController> controller_;
};

// Copy of the Fabric constructor (src/core/fabric.cc) for the serial
// dispatcher, with timed nodes.
class TimedFabric : public Topology {
 public:
  TimedFabric(const FabricConfig& config, LayerClocks* clocks)
      : config_(config),
        partitioner_(config.num_racks * config.servers_per_rack, config.partition_seed) {
    NC_CHECK(config.sim_threads == 0) << "the timed fabric copies the serial wiring only";
    const size_t n = config.servers_per_rack;
    const size_t racks = config.num_racks;
    const size_t spines = config.num_spines;

    for (size_t r = 0; r < racks; ++r) {
      SwitchConfig tc = config.tor_config;
      tc.switch_ip = kTorIpBase + static_cast<IpAddress>(r);
      size_t ports = n + spines;
      if (tc.num_pipes * tc.ports_per_pipe < ports) {
        tc.ports_per_pipe = (ports + tc.num_pipes - 1) / tc.num_pipes;
      }
      tors_.push_back(std::make_unique<TimedSwitch>(&clocks->switches, false, &sim_,
                                                    "tor" + std::to_string(r), tc));
    }
    for (size_t s = 0; s < spines; ++s) {
      SwitchConfig sc = config.spine_config;
      sc.switch_ip = kSpineIpBase + static_cast<IpAddress>(s);
      size_t ports = racks + 1;
      if (sc.num_pipes * sc.ports_per_pipe < ports) {
        sc.ports_per_pipe = (ports + sc.num_pipes - 1) / sc.num_pipes;
      }
      spines_.push_back(std::make_unique<TimedSwitch>(&clocks->switches, false, &sim_,
                                                      "spine" + std::to_string(s), sc));
    }

    for (size_t g = 0; g < racks * n; ++g) {
      size_t rack = g / n;
      size_t local = g % n;
      ServerConfig sc = config.server_template;
      sc.ip = kServerIpBase + static_cast<IpAddress>(g);
      sc.switch_ip = kTorIpBase + static_cast<IpAddress>(rack);
      servers_.push_back(std::make_unique<TimedServer>(&clocks->servers, true, &sim_,
                                                       "server" + std::to_string(g), sc));
      auto link = std::make_unique<Link>(&sim_, config.link);
      link->Connect(tors_[rack].get(), static_cast<uint32_t>(local), servers_[g].get(), 0);
      links_.push_back(std::move(link));
      NC_CHECK(tors_[rack]->AddRoute(sc.ip, static_cast<uint32_t>(local)).ok());
    }

    LinkConfig fabric_link = config.link;
    if (config.fabric_propagation > 0) {
      fabric_link.propagation = config.fabric_propagation;
    }
    for (size_t r = 0; r < racks; ++r) {
      for (size_t s = 0; s < spines; ++s) {
        auto link = std::make_unique<Link>(&sim_, fabric_link);
        link->Connect(tors_[r].get(), static_cast<uint32_t>(n + s), spines_[s].get(),
                      static_cast<uint32_t>(r));
        links_.push_back(std::move(link));
      }
    }

    for (size_t s = 0; s < spines; ++s) {
      ClientConfig cc = config.client_template;
      cc.ip = kClientIpBase + static_cast<IpAddress>(s);
      clients_.push_back(std::make_unique<TimedClient>(&clocks->clients, false, &sim_,
                                                       "client" + std::to_string(s), cc));
      auto link = std::make_unique<Link>(&sim_, config.link);
      link->Connect(spines_[s].get(), static_cast<uint32_t>(racks), clients_[s].get(), 0);
      links_.push_back(std::move(link));
    }

    for (size_t s = 0; s < spines; ++s) {
      for (size_t g = 0; g < racks * n; ++g) {
        NC_CHECK(spines_[s]
                     ->AddRoute(kServerIpBase + static_cast<IpAddress>(g),
                                static_cast<uint32_t>(g / n))
                     .ok());
      }
      NC_CHECK(spines_[s]
                   ->AddRoute(kClientIpBase + static_cast<IpAddress>(s),
                              static_cast<uint32_t>(racks))
                   .ok());
    }
    for (size_t r = 0; r < racks; ++r) {
      for (size_t s = 0; s < spines; ++s) {
        NC_CHECK(tors_[r]
                     ->AddRoute(kClientIpBase + static_cast<IpAddress>(s),
                                static_cast<uint32_t>(n + s))
                     .ok());
      }
    }

    auto owner = [this](const Key& key) { return OwnerOf(key); };
    if (config.mode == FabricCacheMode::kSpineOnly) {
      for (size_t s = 0; s < spines; ++s) {
        auto ctl = std::make_unique<CacheController>(&sim_, spines_[s].get(),
                                                     config.controller_config, owner);
        for (size_t g = 0; g < racks * n; ++g) {
          ctl->RegisterServer(kServerIpBase + static_cast<IpAddress>(g), servers_[g].get());
        }
        controllers_.push_back(std::move(ctl));
      }
    } else if (config.mode == FabricCacheMode::kLeafOnly) {
      for (size_t r = 0; r < racks; ++r) {
        auto ctl = std::make_unique<CacheController>(&sim_, tors_[r].get(),
                                                     config.controller_config, owner);
        for (size_t local = 0; local < n; ++local) {
          size_t g = r * n + local;
          ctl->RegisterServer(kServerIpBase + static_cast<IpAddress>(g), servers_[g].get());
        }
        controllers_.push_back(std::move(ctl));
      }
    }

    for (auto& t : tors_) {
      switches.push_back(t.get());
    }
    for (auto& s : spines_) {
      switches.push_back(s.get());
    }
    for (auto& s : servers_) {
      servers.push_back(s.get());
    }
    for (auto& c : clients_) {
      clients.push_back(c.get());
    }
    for (auto& c : controllers_) {
      controllers.push_back(c.get());
    }
    for (auto& l : links_) {
      links.push_back(l.get());
    }
  }

  Simulator& sim() override { return sim_; }

  void Populate(uint64_t num_keys, size_t value_size) override {
    for (uint64_t id = 0; id < num_keys; ++id) {
      Key key = Key::FromUint64(id);
      servers_[partitioner_.PartitionOf(key)]->store().Put(
          key, WorkloadGenerator::ValueFor(id, value_size));
    }
  }

  void Warm(const std::vector<Key>& keys) override {
    if (config_.mode == FabricCacheMode::kSpineOnly) {
      for (auto& ctl : controllers_) {
        ctl->Warm(keys);
      }
    } else if (config_.mode == FabricCacheMode::kLeafOnly) {
      for (size_t r = 0; r < config_.num_racks; ++r) {
        std::vector<Key> local;
        for (const Key& key : keys) {
          if (partitioner_.PartitionOf(key) / config_.servers_per_rack == r) {
            local.push_back(key);
          }
        }
        controllers_[r]->Warm(local);
      }
    }
  }

  void StartControllers() override {
    for (auto& ctl : controllers_) {
      ctl->Start();
    }
  }

  IpAddress OwnerOf(const Key& key) const override {
    return kServerIpBase + static_cast<IpAddress>(partitioner_.PartitionOf(key));
  }

  // The checkers Rack::EnableInvariantChecks installs, over every switch of
  // the fabric: coherence, slot and sketch checks plus switch accounting per
  // switch, and one conservation check over every link, client and server.
  CheckerRunner* EnableChecks() override {
    if (checkers_ != nullptr) {
      return checkers_.get();
    }
    checkers_ = std::make_unique<CheckerRunner>(&sim_);
    auto owner = [this](const Key& key) -> const StorageServer* {
      return servers_[partitioner_.PartitionOf(key)].get();
    };
    for (NetCacheSwitch* sw : switches) {
      sw->query_stats().EnableShadowTracking();
      checkers_->AddChecker(std::make_unique<CacheCoherenceChecker>(sw, owner));
      checkers_->AddChecker(std::make_unique<SlotConsistencyChecker>(sw));
      checkers_->AddChecker(std::make_unique<SketchSoundnessChecker>(&sw->query_stats()));
      checkers_->AddChecker(std::make_unique<PacketConservationChecker>(
          std::vector<const Link*>{}, std::vector<const Client*>{},
          std::vector<const StorageServer*>{}, sw));
    }
    checkers_->AddChecker(std::make_unique<PacketConservationChecker>(
        links, std::vector<const Client*>(clients.begin(), clients.end()),
        std::vector<const StorageServer*>(servers.begin(), servers.end()), nullptr));
    return checkers_.get();
  }

 private:
  FabricConfig config_;
  Simulator sim_;
  HashPartitioner partitioner_;
  std::vector<std::unique_ptr<TimedSwitch>> tors_;
  std::vector<std::unique_ptr<TimedSwitch>> spines_;
  std::vector<std::unique_ptr<TimedServer>> servers_;
  std::vector<std::unique_ptr<TimedClient>> clients_;
  std::vector<std::unique_ptr<CacheController>> controllers_;
  std::vector<std::unique_ptr<Link>> links_;
  std::unique_ptr<CheckerRunner> checkers_;
};

}  // namespace

std::unique_ptr<Topology> MakeTimedTopology(const WorkloadSpec& spec, LayerClocks* clocks) {
  if (spec.fabric) {
    return std::make_unique<TimedFabric>(spec.fabric_config, clocks);
  }
  return std::make_unique<TimedRack>(spec.rack, clocks);
}

}  // namespace netcache::perfbench

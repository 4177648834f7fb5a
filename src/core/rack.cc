#include "core/rack.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "verify/rack_checkers.h"
#include "workload/generator.h"

namespace netcache {

namespace {
constexpr IpAddress kServerIpBase = 0x0a000000;
constexpr IpAddress kClientIpBase = 0x0b000000;
}  // namespace

Rack::Rack(const RackConfig& config)
    : config_(config), partitioner_(config.num_servers, config.partition_seed) {
  NC_CHECK(config.num_servers > 0);
  NC_CHECK(config.num_clients > 0);

  // Size the switch radix to the rack: servers first, then client uplinks.
  SwitchConfig sw = config_.switch_config;
  size_t ports_needed = config.num_servers + config.num_clients;
  if (sw.num_pipes * sw.ports_per_pipe < ports_needed) {
    sw.ports_per_pipe = (ports_needed + sw.num_pipes - 1) / sw.num_pipes;
  }
  config_.switch_config = sw;
  tor_ = std::make_unique<NetCacheSwitch>(&sim_, "tor", sw);

  for (size_t i = 0; i < config.num_servers; ++i) {
    ServerConfig sc = config.server_template;
    sc.ip = server_ip(i);
    sc.switch_ip = sw.switch_ip;
    servers_.push_back(
        std::make_unique<StorageServer>(&sim_, "server" + std::to_string(i), sc));
    auto link = std::make_unique<Link>(&sim_, config.server_link);
    link->Connect(tor_.get(), static_cast<uint32_t>(i), servers_[i].get(), 0);
    links_.push_back(std::move(link));
    NC_CHECK(tor_->AddRoute(sc.ip, static_cast<uint32_t>(i)).ok());
  }

  for (size_t j = 0; j < config.num_clients; ++j) {
    ClientConfig cc = config.client_template;
    cc.ip = client_ip(j);
    clients_.push_back(std::make_unique<Client>(&sim_, "client" + std::to_string(j), cc));
    uint32_t port = static_cast<uint32_t>(config.num_servers + j);
    auto link = std::make_unique<Link>(&sim_, config.client_link);
    link->Connect(tor_.get(), port, clients_[j].get(), 0);
    links_.push_back(std::move(link));
    NC_CHECK(tor_->AddRoute(cc.ip, port).ok());
  }

  if (config_.cache_enabled) {
    controller_ = std::make_unique<CacheController>(&sim_, tor_.get(),
                                                    config_.controller_config, OwnerFn());
    for (size_t i = 0; i < servers_.size(); ++i) {
      controller_->RegisterServer(server_ip(i), servers_[i].get());
    }
  }

  // One namespace for the whole rack's telemetry.
  tor_->RegisterMetrics(metrics_, "switch", {{"component", "switch"}});
  for (size_t i = 0; i < servers_.size(); ++i) {
    std::string index = std::to_string(i);
    servers_[i]->RegisterMetrics(metrics_, "server." + index,
                                 {{"component", "server"}, {"index", index}});
  }
  for (size_t j = 0; j < clients_.size(); ++j) {
    std::string index = std::to_string(j);
    clients_[j]->RegisterMetrics(metrics_, "client." + index,
                                 {{"component", "client"}, {"index", index}});
  }
  if (controller_ != nullptr) {
    controller_->RegisterMetrics(metrics_, "controller", {{"component", "controller"}});
  }

  // Event-queue pressure. The peak is sampled at timestamp advances, which
  // makes it identical across burst modes — the determinism legs diff these
  // through the metrics JSON byte-for-byte.
  metrics_.AddCounter("sim.events_dispatched",
                      [this] { return static_cast<double>(sim_.events_processed()); },
                      {{"component", "sim"}});
  metrics_.AddGauge("sim.event_queue_peak",
                    [this] { return static_cast<double>(sim_.event_queue_peak()); },
                    {{"component", "sim"}});
}

IpAddress Rack::server_ip(size_t i) const {
  return kServerIpBase + static_cast<IpAddress>(i);
}

IpAddress Rack::client_ip(size_t i) const {
  return kClientIpBase + static_cast<IpAddress>(i);
}

IpAddress Rack::OwnerOf(const Key& key) const {
  return server_ip(partitioner_.PartitionOf(key));
}

std::function<IpAddress(const Key&)> Rack::OwnerFn() const {
  return [this](const Key& key) { return OwnerOf(key); };
}

void Rack::Populate(uint64_t num_keys, size_t value_size) {
  for (uint64_t id = 0; id < num_keys; ++id) {
    Key key = Key::FromUint64(id);
    size_t owner = partitioner_.PartitionOf(key);
    servers_[owner]->store().Put(key, WorkloadGenerator::ValueFor(id, value_size));
  }
}

void Rack::WarmCache(const std::vector<Key>& keys) {
  NC_CHECK(config_.cache_enabled) << "WarmCache on a NoCache rack";
  controller_->Warm(keys);
}

void Rack::StartController() {
  NC_CHECK(config_.cache_enabled) << "StartController on a NoCache rack";
  controller_->Start();
}

CheckerRunner& Rack::EnableInvariantChecks(SimDuration interval) {
  if (verifier_ != nullptr) {
    return *verifier_;
  }
  verifier_ = std::make_unique<CheckerRunner>(&sim_);

  // Ground-truth shadow tracking so the sketch-soundness checker has exact
  // counts to compare the probabilistic structures against. Must be on
  // before traffic flows; checks pass vacuously for earlier queries.
  tor_->query_stats().EnableShadowTracking();

  verifier_->AddChecker(std::make_unique<CacheCoherenceChecker>(
      tor_.get(), [this](const Key& key) -> const StorageServer* {
        return servers_[partitioner_.PartitionOf(key)].get();
      }));
  verifier_->AddChecker(std::make_unique<SlotConsistencyChecker>(tor_.get()));
  verifier_->AddChecker(std::make_unique<SketchSoundnessChecker>(&tor_->query_stats()));

  std::vector<const Link*> links;
  for (const auto& link : links_) {
    links.push_back(link.get());
  }
  std::vector<const Client*> clients;
  for (const auto& client : clients_) {
    clients.push_back(client.get());
  }
  std::vector<const StorageServer*> servers;
  for (const auto& server : servers_) {
    servers.push_back(server.get());
  }
  verifier_->AddChecker(std::make_unique<PacketConservationChecker>(
      std::move(links), std::move(clients), std::move(servers), tor_.get()));

  verifier_->RegisterMetrics(metrics_, "verify", {{"component", "verify"}});
  if (interval > 0) {
    verifier_->Start(interval);
  }
  return *verifier_;
}

}  // namespace netcache

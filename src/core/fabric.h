// Leaf-spine fabric: the §5 "Scaling to multiple racks" architecture at
// packet level.
//
// R racks of storage servers sit behind NetCache ToR switches; S spine
// switches (also NetCacheSwitch instances) interconnect the racks and can
// cache the globally hottest items, replicated on every spine with client
// load spread across spines. Clients attach at the spine layer, so all
// cross-rack traffic traverses exactly one spine — where a cached read is
// answered without ever entering the destination rack.
//
// Following the paper's own methodology for this experiment ("simulations
// with read-only workloads ... We leave cache coherence and cache
// allocation for multiple racks as future work", §7.3), the fabric is
// evaluated with read-only traffic; spine caches are warmed statically or
// filled by their per-spine controllers from heavy-hitter reports.

#ifndef NETCACHE_CORE_FABRIC_H_
#define NETCACHE_CORE_FABRIC_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "client/client.h"
#include "controller/cache_controller.h"
#include "dataplane/netcache_switch.h"
#include "net/link.h"
#include "net/simulator.h"
#include "server/storage_server.h"
#include "workload/partition.h"

namespace netcache {

enum class FabricCacheMode {
  kNone,       // no caching anywhere (NoCache baseline)
  kLeafOnly,   // ToR switches cache their own rack's hot items
  kSpineOnly,  // spine switches cache the globally hot items
};

struct FabricConfig {
  size_t num_racks = 4;
  size_t servers_per_rack = 4;
  size_t num_spines = 2;  // one client attaches per spine
  FabricCacheMode mode = FabricCacheMode::kSpineOnly;

  SwitchConfig tor_config;
  SwitchConfig spine_config;
  ServerConfig server_template;
  ClientConfig client_template;
  ControllerConfig controller_config;  // per caching switch
  LinkConfig link;                     // used for every hop
  // Optional propagation override for the ToR<->spine hops: cross-rack fiber
  // is physically longer than an in-rack DAC cable. 0 = use
  // link.propagation.
  SimDuration fabric_propagation = 0;
  uint64_t partition_seed = 0x70617274;
  // Read-only: perfbench/ checks it. The simulator has one serial
  // dispatcher and no worker threads.
  static constexpr size_t sim_threads = 0;
};

class Fabric {
 public:
  explicit Fabric(const FabricConfig& config);

  // Loads key ids [0, num_keys) into their owning servers.
  void Populate(uint64_t num_keys, size_t value_size);

  // Replicates `keys` into EVERY caching switch of the active mode (spines
  // in kSpineOnly, ToRs — each taking only the keys its rack owns — in
  // kLeafOnly). No-op in kNone.
  void WarmCaches(const std::vector<Key>& keys);

  // Starts the per-switch controllers (heavy-hitter driven adoption).
  void StartControllers();

  Simulator& sim() { return sim_; }
  size_t num_servers() const { return config_.num_racks * config_.servers_per_rack; }
  size_t num_clients() const { return clients_.size(); }

  IpAddress server_ip(size_t global_index) const;
  IpAddress client_ip(size_t spine) const;
  IpAddress OwnerOf(const Key& key) const;
  std::function<IpAddress(const Key&)> OwnerFn() const;
  size_t RackOfServer(size_t global_index) const { return global_index / config_.servers_per_rack; }

  Client& client(size_t spine) { return *clients_[spine]; }
  StorageServer& server(size_t global_index) { return *servers_[global_index]; }
  NetCacheSwitch& tor(size_t rack) { return *tors_[rack]; }
  NetCacheSwitch& spine(size_t s) { return *spines_[s]; }
  CacheController* controller(size_t caching_switch_index) {
    return controllers_[caching_switch_index].get();
  }

  // Aggregate counters across a tier.
  uint64_t TotalSpineHits() const;
  uint64_t TotalTorHits() const;
  uint64_t TotalServerReads() const;

  const FabricConfig& config() const { return config_; }

 private:
  FabricConfig config_;
  Simulator sim_;
  HashPartitioner partitioner_;
  std::vector<std::unique_ptr<NetCacheSwitch>> tors_;
  std::vector<std::unique_ptr<NetCacheSwitch>> spines_;
  std::vector<std::unique_ptr<StorageServer>> servers_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::unique_ptr<CacheController>> controllers_;
  std::vector<std::unique_ptr<Link>> links_;
};

}  // namespace netcache

#endif  // NETCACHE_CORE_FABRIC_H_

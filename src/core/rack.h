// Rack assembly: one NetCache ToR switch, N storage servers, M clients, a
// controller, and the links wiring them — the full §3 architecture in one
// object, on top of the discrete-event simulator.
//
// This is the main entry point of the library for packet-level experiments
// (quickstart example, Fig 10(c) latency, Fig 11 dynamics). Throughput-
// scaling results use the closed-form capacity model in saturation.h, which
// replicates the paper's server-rotation methodology.

#ifndef NETCACHE_CORE_RACK_H_
#define NETCACHE_CORE_RACK_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "client/client.h"
#include "common/metrics.h"
#include "controller/cache_controller.h"
#include "dataplane/netcache_switch.h"
#include "net/link.h"
#include "net/simulator.h"
#include "server/storage_server.h"
#include "verify/checker_runner.h"
#include "workload/partition.h"

namespace netcache {

struct RackConfig {
  size_t num_servers = 8;
  size_t num_clients = 1;
  // When false the switch keeps an empty cache and the controller never
  // starts: the NoCache baseline.
  bool cache_enabled = true;

  SwitchConfig switch_config;
  ServerConfig server_template;      // ip/switch_ip filled per server
  ClientConfig client_template;      // ip filled per client
  ControllerConfig controller_config;
  LinkConfig server_link;            // ToR <-> server (paper: 25/40G)
  LinkConfig client_link;            // ToR <-> client (paper: 40G)
  uint64_t partition_seed = 0x70617274;
  // Read-only: perfbench/ checks it. The simulator has one serial
  // dispatcher and no worker threads.
  static constexpr size_t sim_threads = 0;
};

class Rack {
 public:
  explicit Rack(const RackConfig& config);

  // Loads every key id in [0, num_keys) into its owning server's store with
  // a deterministic filler value.
  void Populate(uint64_t num_keys, size_t value_size);

  // Installs the given keys into the switch cache through the controller
  // (values fetched from the servers); call after Populate.
  void WarmCache(const std::vector<Key>& keys);

  // Starts the controller's reporting/epoch machinery (cache_enabled only).
  void StartController();

  Simulator& sim() { return sim_; }

  // Every component's telemetry under one namespace, wired at construction:
  // "switch.*", "server.<i>.*", "client.<j>.*", and (cache_enabled only)
  // "controller.*". Attach a MetricsPoller for Fig-11-style dynamics.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  NetCacheSwitch& tor() { return *tor_; }
  StorageServer& server(size_t i) { return *servers_[i]; }
  Client& client(size_t i) { return *clients_[i]; }
  CacheController& controller() { return *controller_; }
  Link& link(size_t i) { return *links_[i]; }
  size_t num_servers() const { return servers_.size(); }
  size_t num_clients() const { return clients_.size(); }
  size_t num_links() const { return links_.size(); }

  // Builds a CheckerRunner with the four standard checkers (cache coherence,
  // slot consistency, sketch soundness, packet conservation), enables sketch
  // shadow tracking, and registers "verify.*" metrics. With `interval` > 0
  // the runner re-checks every `interval` of simulated time; call
  // invariant_runner()->RunOnce() for a final sweep at quiesce. Idempotent —
  // a second call returns the existing runner (the interval of the first
  // call wins).
  CheckerRunner& EnableInvariantChecks(SimDuration interval = 0);
  // Null until EnableInvariantChecks has been called.
  CheckerRunner* invariant_runner() { return verifier_.get(); }

  IpAddress server_ip(size_t i) const;
  IpAddress client_ip(size_t i) const;

  // Hash-partition owner of a key.
  IpAddress OwnerOf(const Key& key) const;
  std::function<IpAddress(const Key&)> OwnerFn() const;

  const RackConfig& config() const { return config_; }

 private:
  RackConfig config_;
  Simulator sim_;
  MetricsRegistry metrics_;
  HashPartitioner partitioner_;
  std::unique_ptr<NetCacheSwitch> tor_;
  std::vector<std::unique_ptr<StorageServer>> servers_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::unique_ptr<Link>> links_;
  std::unique_ptr<CacheController> controller_;
  std::unique_ptr<CheckerRunner> verifier_;
};

}  // namespace netcache

#endif  // NETCACHE_CORE_RACK_H_

// The benchmark's three workloads and the code that runs one repetition of
// a workload on a topology.
//
// A Topology is a uniform view over either the library's own Rack/Fabric
// (the untraced runs that produce the end-to-end metrics) or the
// benchmark-side copy of their wiring with timing subclasses
// (timed_topology.h, the traced runs). RunRep drives both through the same
// code, so the traced copy can be held to the untraced run's exact
// simulated results.

#ifndef NETCACHE_PERFBENCH_WORKLOADS_H_
#define NETCACHE_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client/client.h"
#include "controller/cache_controller.h"
#include "core/fabric.h"
#include "core/rack.h"
#include "dataplane/netcache_switch.h"
#include "net/link.h"
#include "net/simulator.h"
#include "server/storage_server.h"
#include "verify/checker_runner.h"

namespace netcache::perfbench {

struct WorkloadSpec {
  std::string name;
  bool fabric = false;
  RackConfig rack;
  FabricConfig fabric_config;

  uint64_t num_keys = 0;
  size_t value_size = 128;
  double zipf_alpha = 0.99;
  double write_ratio = 0.0;
  bool skewed_writes = false;
  size_t warm_keys = 0;         // hottest keys installed before traffic
  bool start_controllers = false;
  double rate_qps = 0;          // per client, open loop
  SimDuration duration = 0;     // sending phase
  SimDuration drain = 0;        // quiet tail so every query resolves
  // Fig 11 hot-in shift: at `hot_in_at` the `hot_in_keys` coldest keys jump
  // to the top of the popularity ranking. 0 keys = no shift.
  SimTime hot_in_at = 0;
  uint64_t hot_in_keys = 0;
};

// Returns the spec of a named workload, or nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// Wall-clock account of the module boundaries a traced run times. `depth`
// makes only the outermost handler call of a node count, so a HandleBurst
// that unrolls into HandlePacket is timed once.
struct NodeClock {
  uint64_t ns = 0;
  uint64_t calls = 0;
  uint64_t packets = 0;
  uint64_t burst_packets = 0;  // packets handled in calls of more than one
  int depth = 0;
};

struct LayerClocks {
  NodeClock switches;
  NodeClock servers;
  NodeClock clients;
  uint64_t source_ns = 0;  // time inside the QuerySource callbacks
  uint64_t source_calls = 0;
};

class Topology {
 public:
  virtual ~Topology() = default;

  virtual Simulator& sim() = 0;
  virtual void Populate(uint64_t num_keys, size_t value_size) = 0;
  virtual void Warm(const std::vector<Key>& keys) = 0;
  virtual void StartControllers() = 0;
  virtual IpAddress OwnerOf(const Key& key) const = 0;
  // Enables the invariant checkers before traffic flows. Only the library
  // Rack and the timed fabric host them (the library Fabric does not expose
  // its links); the others return nullptr.
  virtual CheckerRunner* EnableChecks() { return nullptr; }

  std::vector<NetCacheSwitch*> switches;
  std::vector<StorageServer*> servers;
  std::vector<Client*> clients;
  std::vector<CacheController*> controllers;
  std::vector<const Link*> links;  // empty when the topology hides them
};

std::unique_ptr<Topology> MakeLibraryTopology(const WorkloadSpec& spec);

// Flat name -> value records; values are exact integers or derived ratios.
using Values = std::map<std::string, double>;

struct RepResult {
  double build_s = 0;
  double populate_s = 0;
  double warm_s = 0;
  double setup_s = 0;
  double run_s = 0;       // driver start through drain
  uint64_t queries = 0;   // completed queries
  Values model;           // simulated results: must match across reps and builds
  Values engine;          // simulator-internal counts: must match across reps
  Values sim;             // the sim_* summary metrics
  Values layer;           // per-layer counts
  Values config;          // simulator flags the run executed with
  std::vector<std::string> problems;  // conservation / invariant failures
};

struct RepOptions {
  LayerClocks* clocks = nullptr;  // non-null: time the QuerySource callback
  bool checks = false;            // enable invariant checkers, sweep at quiesce
};

RepResult RunRep(const WorkloadSpec& spec, uint64_t seed,
                 const std::function<std::unique_ptr<Topology>()>& make,
                 const RepOptions& options);

}  // namespace netcache::perfbench

#endif  // NETCACHE_PERFBENCH_WORKLOADS_H_

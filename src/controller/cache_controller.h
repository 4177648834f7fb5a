// NetCache controller (§3, §4.3).
//
// Receives heavy-hitter reports from the switch data plane (via the switch
// driver — modeled as a direct callback), compares them against sampled
// counters of already-cached items (the Redis-style victim sampling §4.3
// describes), and drives cache insertions/evictions through the switch's
// control-plane API. It also clears the query-statistics module every epoch.
//
// Control-plane throughput is limited: commodity switches sustain on the
// order of 10K table updates per second (§4.3). The controller therefore
// serializes its work through a queue where each operation costs
// `control_op_latency` of simulated time — this is what bounds how fast the
// cache adapts in the Fig 11 dynamics experiments.
//
// Insertion follows the §4.3 coherence protocol: block writes to the key at
// its owning server, fetch the value, install switch entry, unblock.

#ifndef NETCACHE_CONTROLLER_CACHE_CONTROLLER_H_
#define NETCACHE_CONTROLLER_CACHE_CONTROLLER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/time_units.h"
#include "dataplane/netcache_switch.h"
#include "net/simulator.h"
#include "proto/key.h"
#include "server/storage_server.h"

namespace netcache {

struct ControllerConfig {
  // Target number of cached items; must not exceed the switch lookup table.
  size_t cache_capacity = 10'000;
  // Victim candidates sampled per eviction decision (Redis-style, §4.3).
  size_t eviction_sample_size = 8;
  // Statistics clearing cycle (§6: "We reset them every second").
  SimDuration stats_epoch = kSecond;
  // Cost of one control-plane operation (~10K updates/s, §4.3).
  SimDuration control_op_latency = 100 * kMicrosecond;
  // Dirty-entry flush cycle, used only when the switch runs in the
  // experimental write-back mode (§5).
  SimDuration write_back_flush_interval = 100 * kMillisecond;
  // Periodic memory reorganization (§4.4.2: "periodic memory reorganization
  // is still needed to pack small values ... to make room for large
  // values"). Every this-many epochs the controller compacts each pipe so a
  // full-width value can fit. 0 disables.
  size_t defrag_every_epochs = 0;
  // Heavy-hitter threshold auto-tuning (§4.4.3: "the sample rate can be
  // dynamically configured by the controller", likewise the threshold).
  // When > 0, the controller doubles the switch's hot threshold whenever an
  // epoch produced more than 2x this many reports, and halves it (floor 2)
  // below half of it — keeping report volume, and therefore control-plane
  // load, bounded under any workload. 0 disables tuning.
  size_t target_reports_per_epoch = 0;
  uint64_t seed = 0xc0117801;
};

struct ControllerStats {
  uint64_t reports_received = 0;
  uint64_t reports_ignored = 0;  // already cached / duplicate / colder than victim
  uint64_t insertions = 0;
  uint64_t insertion_failures = 0;
  uint64_t evictions = 0;
  uint64_t defrag_moves = 0;
  uint64_t epochs = 0;
  uint64_t reject_reinserts = 0;
  uint64_t dirty_flushes = 0;  // write-back values flushed to servers
  uint64_t threshold_raises = 0;
  uint64_t threshold_drops = 0;
};

class CacheController {
 public:
  // `owner_of` maps a key to the IP of its owning storage server
  // (hash partitioning is the rack's concern, not the controller's).
  CacheController(Simulator* sim, NetCacheSwitch* sw, const ControllerConfig& config,
                  std::function<IpAddress(const Key&)> owner_of);

  // Registers the server agent handle reachable at `ip` (control channel).
  void RegisterServer(IpAddress ip, StorageServer* server);

  // Wires the switch's hot-report stream to this controller and starts the
  // periodic statistics reset.
  void Start();

  // Pre-populates the cache with `keys` (e.g. the top-K hottest at t=0, as
  // the Fig 11 experiments do). Bypasses the work queue; call before Start().
  void Warm(const std::vector<Key>& keys);

  // Data-plane heavy-hitter report entry point.
  void OnHotReport(const Key& key, uint32_t estimate);

  // Server agent callback: a data-plane update didn't fit; re-insert through
  // the control plane (§4.3).
  void OnUpdateReject(const Key& key, const Value& value);

  // Re-synchronizes after a switch reboot / ToR failover (§3): forgets cache
  // membership and pending work; the cache refills from subsequent
  // heavy-hitter reports. Call right after NetCacheSwitch::ClearCache().
  void OnSwitchReboot();

  size_t NumCached() const { return cached_keys_.size(); }
  const ControllerStats& stats() const { return stats_; }
  const ControllerConfig& config() const { return config_; }

  // Registers every ControllerStats field plus cached-set and work-queue
  // gauges under `prefix` (e.g. "controller.insertions").
  void RegisterMetrics(MetricsRegistry& registry, const std::string& prefix = "controller",
                       MetricsRegistry::Labels labels = {}) const;

 private:
  struct Candidate {
    Key key;
    uint32_t estimate = 0;
    bool is_reject_reinsert = false;
  };

  void ScheduleEpochReset();
  void ScheduleDirtyFlush();
  void FlushDirtyEntries();
  void PumpQueue();
  void ProcessCandidate(const Candidate& candidate);

  // Installs `key` (blocking writes at the owner for the §4.3 protocol).
  // Returns true on success.
  bool InsertKey(const Key& key);
  void EvictKey(const Key& key);

  // Samples eviction_sample_size cached keys and returns the coldest
  // (key, counter); nullopt when the cache is empty.
  struct Victim {
    Key key;
    uint32_t counter = 0;
  };
  std::optional<Victim> PickVictim();

  void TrackInsert(const Key& key);
  void TrackEvict(const Key& key);

  Simulator* sim_;
  NetCacheSwitch* switch_;
  ControllerConfig config_;
  std::function<IpAddress(const Key&)> owner_of_;
  std::unordered_map<IpAddress, StorageServer*> servers_;

  // Controller's view of cache membership, supporting O(1) random sampling.
  std::vector<Key> cached_keys_;
  std::unordered_map<Key, size_t, KeyHasher> cached_index_;

  std::deque<Candidate> work_;
  bool pumping_ = false;
  bool started_ = false;

  Rng rng_;
  ControllerStats stats_;
  uint64_t reports_at_epoch_start_ = 0;
  uint32_t tuned_threshold_ = 0;  // 0 until the first adjustment
};

}  // namespace netcache

#endif  // NETCACHE_CONTROLLER_CACHE_CONTROLLER_H_

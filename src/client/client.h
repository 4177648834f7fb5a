// NetCache client library (§3 "Clients"): a Get/Put/Delete interface in the
// style of Memcached/Redis that translates calls into NetCache packets and
// matches replies back to callbacks by sequence number.
//
// The client is oblivious to the cache: it addresses every query to the
// storage server that owns the key (per the hash partitioning) and the ToR
// switch transparently answers reads it can serve (§4.1 "without any
// knowledge of NetCache").

#ifndef NETCACHE_CLIENT_CLIENT_H_
#define NETCACHE_CLIENT_CLIENT_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>

#include "common/histogram.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/time_units.h"
#include "net/node.h"
#include "net/simulator.h"
#include "proto/packet.h"

namespace netcache {

struct ClientConfig {
  IpAddress ip = 0;
  // Outstanding queries older than this are reported as kUnavailable (packet
  // loss); reads are UDP, so loss is expected under overload. A reply that
  // arrives exactly at the deadline is a timeout.
  SimDuration reply_timeout = 2 * kMillisecond;
};

struct ClientStats {
  uint64_t gets_sent = 0;
  uint64_t puts_sent = 0;
  uint64_t deletes_sent = 0;
  uint64_t replies = 0;
  uint64_t not_found = 0;
  uint64_t timeouts = 0;
};

class Client : public Node {
 public:
  // Callback for every operation: status is Ok / NotFound / Unavailable
  // (timeout); `value` is meaningful for successful Gets.
  using ResponseCallback = std::function<void(const Status&, const Value&)>;

  Client(Simulator* sim, std::string name, const ClientConfig& config);

  void Get(IpAddress server, const Key& key, ResponseCallback cb);
  void Put(IpAddress server, const Key& key, const Value& value, ResponseCallback cb);
  void Delete(IpAddress server, const Key& key, ResponseCallback cb);

  // String-key convenience overloads (§5: variable-length keys are hashed to
  // fixed 16-byte keys).
  void Get(IpAddress server, std::string_view key, ResponseCallback cb) {
    Get(server, Key::FromString(key), std::move(cb));
  }
  void Put(IpAddress server, std::string_view key, std::string_view value, ResponseCallback cb) {
    Put(server, Key::FromString(key), Value::FromString(value), std::move(cb));
  }
  void Delete(IpAddress server, std::string_view key, ResponseCallback cb) {
    Delete(server, Key::FromString(key), std::move(cb));
  }

  void HandlePacket(const Packet& pkt, uint32_t in_port) override;

  const ClientStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ClientStats{}; }
  // Latency of completed queries, in nanoseconds of simulated time.
  const Histogram& latency() const { return latency_; }
  Histogram& latency() { return latency_; }
  size_t Outstanding() const { return unanswered_; }

  // Registers every ClientStats field, the outstanding-query gauge, and the
  // latency histogram under `prefix` (e.g. "client.0.latency").
  void RegisterMetrics(MetricsRegistry& registry, const std::string& prefix,
                       MetricsRegistry::Labels labels = {}) const;

  const ClientConfig& config() const { return config_; }

 private:
  // One sent query; it times out at sent_at + reply_timeout.
  struct Pending {
    ResponseCallback cb;
    SimTime sent_at = 0;
    bool answered = false;  // replied to or timed out; later replies are dropped
  };

  void SendQuery(Packet pkt, ResponseCallback cb);
  // Times out every unanswered query whose deadline is <= Now(), in seq order.
  void ExpireDue();
  // Drops answered queries off the front of the window.
  void PopAnswered();
  // The reply timer: expires due queries, then re-arms at the deadline of the
  // oldest unanswered one, if any.
  void OnTimer();
  void ArmTimer(SimTime at);

  Simulator* sim_;
  ClientConfig config_;
  uint32_t next_seq_ = 1;
  // Sent queries in seq order: window_[i] holds seq first_seq_ + i, so
  // first_seq_ + window_.size() == next_seq_. reply_timeout is fixed, so
  // deadlines ascend with seq and one timer covers the whole window.
  std::deque<Pending> window_;
  uint32_t first_seq_ = 1;
  size_t unanswered_ = 0;  // window_ entries still awaiting a reply
  // At most one timer event is pending. It is never later than the deadline
  // of the oldest unanswered query.
  bool timer_armed_ = false;
  ClientStats stats_;
  Histogram latency_;
};

}  // namespace netcache

#endif  // NETCACHE_CLIENT_CLIENT_H_

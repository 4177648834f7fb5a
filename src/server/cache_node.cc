#include "server/cache_node.h"

#include <utility>

#include "common/logging.h"

namespace netcache {

CacheNode::CacheNode(Simulator* sim, std::string name, const CacheNodeConfig& config,
                     std::function<IpAddress(const Key&)> owner_of)
    : Node(std::move(name)), sim_(sim), config_(config), owner_of_(std::move(owner_of)) {
  NC_CHECK(sim != nullptr);
  NC_CHECK(config.service_rate_qps > 0.0);
  NC_CHECK(config.cache_capacity > 0);
}

SimDuration CacheNode::ServiceTime() const {
  double ns = 1e9 / config_.service_rate_qps;
  SimDuration d = static_cast<SimDuration>(ns);
  return d > 0 ? d : 1;
}

void CacheNode::HandlePacket(const Packet& pkt, uint32_t /*in_port*/) {
  ++stats_.received;
  if (!pkt.is_netcache) {
    return;
  }
  EnqueueOrDrop(pkt);
}

void CacheNode::EnqueueOrDrop(const Packet& pkt) {
  if (queue_.size() >= config_.queue_capacity) {
    ++stats_.dropped;
    return;
  }
  queue_.push_back(pkt);
  StartNextIfIdle();
}

void CacheNode::StartNextIfIdle() {
  if (busy_ || queue_.empty()) {
    return;
  }
  busy_ = true;
  // Pool the in-service packet so the completion closure captures a pointer
  // and stays within the inline-event budget.
  Packet* job = sim_->packet_pool().Acquire();
  *job = std::move(queue_.front());
  queue_.pop_front();
  sim_->Schedule(ServiceTime(), [this, job] {
    Process(*job);
    sim_->packet_pool().Release(job);
    busy_ = false;
    StartNextIfIdle();
  });
}

void CacheNode::Process(Packet& pkt) {
  // The pooled in-service packet is rewritten in place on every path (hit
  // reply, miss forward, relay, write pass-through) instead of copied; the
  // pool releases it right after this returns.
  switch (pkt.nc.op) {
    case OpCode::kGet: {
      auto it = index_.find(pkt.nc.key);
      if (it != index_.end()) {
        ++stats_.hits;
        Touch(pkt.nc.key);
        pkt.SwapSrcDst();
        pkt.ip.src = config_.ip;  // answered by the cache node itself
        pkt.nc.op = OpCode::kGetReply;
        pkt.nc.has_value = true;
        pkt.nc.value = it->second.value;
        Send(0, pkt);
        return;
      }
      ++stats_.misses;
      // Forward to the owner; remember who asked so the reply can be relayed.
      pending_[pkt.nc.seq] = pkt.ip.src;
      pkt.ip.src = config_.ip;
      pkt.ip.dst = owner_of_(pkt.nc.key);
      Send(0, pkt);
      return;
    }
    case OpCode::kGetReply: {
      // Reply from a storage server for a forwarded miss: admit + relay.
      auto it = pending_.find(pkt.nc.seq);
      if (it == pending_.end()) {
        return;
      }
      IpAddress client = it->second;
      pending_.erase(it);
      if (pkt.nc.has_value) {
        CacheInsert(pkt.nc.key, pkt.nc.value);
      }
      ++stats_.relayed;
      pkt.ip.src = config_.ip;
      pkt.ip.dst = client;
      Send(0, pkt);
      return;
    }
    case OpCode::kPut:
    case OpCode::kDelete: {
      // Writes update/invalidate the local copy and pass through to the
      // owner, which replies to the client directly.
      ++stats_.writes;
      auto it = index_.find(pkt.nc.key);
      if (it != index_.end()) {
        if (pkt.nc.op == OpCode::kPut) {
          it->second.value = pkt.nc.value;
          Touch(pkt.nc.key);
        } else {
          lru_.erase(it->second.lru_pos);
          index_.erase(it);
        }
      }
      pkt.ip.dst = owner_of_(pkt.nc.key);
      Send(0, pkt);
      return;
    }
    default:
      return;
  }
}

void CacheNode::CacheInsert(const Key& key, const Value& value) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second.value = value;
    Touch(key);
    return;
  }
  if (index_.size() >= config_.cache_capacity) {
    Key victim = lru_.back();
    lru_.pop_back();
    index_.erase(victim);
  }
  lru_.push_front(key);
  index_[key] = Entry{value, lru_.begin()};
}

void CacheNode::Touch(const Key& key) {
  auto it = index_.find(key);
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
}

}  // namespace netcache

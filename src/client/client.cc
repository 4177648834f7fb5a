#include "client/client.h"

#include <utility>

#include "common/logging.h"
#include "common/trace_recorder.h"

namespace netcache {

Client::Client(Simulator* sim, std::string name, const ClientConfig& config)
    : Node(std::move(name)), sim_(sim), config_(config) {
  NC_CHECK(sim != nullptr);
}

void Client::Get(IpAddress server, const Key& key, ResponseCallback cb) {
  ++stats_.gets_sent;
  SendQuery(MakeGet(config_.ip, server, key, next_seq_), std::move(cb));
}

void Client::Put(IpAddress server, const Key& key, const Value& value, ResponseCallback cb) {
  ++stats_.puts_sent;
  SendQuery(MakePut(config_.ip, server, key, value, next_seq_), std::move(cb));
}

void Client::Delete(IpAddress server, const Key& key, ResponseCallback cb) {
  ++stats_.deletes_sent;
  SendQuery(MakeDelete(config_.ip, server, key, next_seq_), std::move(cb));
}

void Client::SendQuery(Packet pkt, ResponseCallback cb) {
  uint32_t seq = next_seq_++;
  pkt.nc.seq = seq;
  window_.push_back(Pending{std::move(cb), sim_->Now()});
  ++unanswered_;
  if (TraceEnabled()) {
    TraceSpan(TraceEvent::kClientSend, TraceQueryId(pkt), sim_->Now(), config_.ip,
              static_cast<uint64_t>(pkt.nc.op));
  }
  Send(0, pkt);
  if (!timer_armed_) {
    ArmTimer(sim_->Now() + config_.reply_timeout);
  }
}

void Client::ArmTimer(SimTime at) {
  timer_armed_ = true;
  // Node-affine: the timer belongs to this client's partition.
  sim_->ScheduleAtFor(this, at, [this] { OnTimer(); });
}

void Client::OnTimer() {
  // timer_armed_ stays set while callbacks run, so queries they send do not
  // arm a second timer; the re-arm below covers them.
  ExpireDue();
  PopAnswered();
  timer_armed_ = false;
  if (!window_.empty()) {
    ArmTimer(window_.front().sent_at + config_.reply_timeout);
  }
}

void Client::ExpireDue() {
  SimTime now = sim_->Now();
  // Index, not iterator: a callback may send a query, which appends.
  for (size_t i = 0; i < window_.size() && window_[i].sent_at + config_.reply_timeout <= now;
       ++i) {
    Pending& pending = window_[i];
    if (pending.answered) {
      continue;
    }
    pending.answered = true;
    --unanswered_;
    ResponseCallback cb = std::move(pending.cb);
    ++stats_.timeouts;
    if (TraceEnabled()) {
      uint32_t seq = first_seq_ + static_cast<uint32_t>(i);
      TraceSpan(TraceEvent::kClientTimeout, (static_cast<uint64_t>(config_.ip) << 32) | seq, now,
                config_.ip);
    }
    if (cb) {
      cb(Status::Unavailable("query timed out"), Value{});
    }
  }
}

void Client::PopAnswered() {
  while (!window_.empty() && window_.front().answered) {
    window_.pop_front();
    ++first_seq_;
  }
}

void Client::HandlePacket(const Packet& pkt, uint32_t /*in_port*/) {
  if (!pkt.is_netcache || !IsReplyOp(pkt.nc.op)) {
    return;
  }
  // A query whose deadline is now has timed out, even if the timer event for
  // this instant has not run yet.
  ExpireDue();
  uint32_t index = pkt.nc.seq - first_seq_;  // wraps to a huge value below the window
  if (index >= window_.size() || window_[index].answered) {
    return;  // late reply after timeout, or a duplicate; drop
  }
  Pending& pending = window_[index];
  pending.answered = true;
  --unanswered_;
  ResponseCallback cb = std::move(pending.cb);
  SimTime sent_at = pending.sent_at;
  PopAnswered();
  ++stats_.replies;
  latency_.Record(sim_->Now() - sent_at);
  if (TraceEnabled()) {
    TraceSpan(TraceEvent::kClientReply, TraceQueryId(pkt), sim_->Now(), config_.ip,
              static_cast<uint64_t>(pkt.nc.op));
  }

  Status status = Status::Ok();
  if (pkt.nc.op == OpCode::kGetReply && !pkt.nc.has_value) {
    ++stats_.not_found;
    status = Status::NotFound("no such key");
  }
  if (cb) {
    cb(status, pkt.nc.value);
  }
}

void Client::RegisterMetrics(MetricsRegistry& registry, const std::string& prefix,
                             MetricsRegistry::Labels labels) const {
  const ClientStats& s = stats_;
  registry.AddCounter(prefix + ".gets_sent", &s.gets_sent, labels);
  registry.AddCounter(prefix + ".puts_sent", &s.puts_sent, labels);
  registry.AddCounter(prefix + ".deletes_sent", &s.deletes_sent, labels);
  registry.AddCounter(prefix + ".replies", &s.replies, labels);
  registry.AddCounter(prefix + ".not_found", &s.not_found, labels);
  registry.AddCounter(prefix + ".timeouts", &s.timeouts, labels);
  registry.AddGauge(
      prefix + ".outstanding", [this] { return static_cast<double>(unanswered_); },
      labels);
  registry.AddHistogram(prefix + ".latency", &latency_, labels);
}

}  // namespace netcache

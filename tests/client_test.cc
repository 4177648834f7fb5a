// Tests for the client library: reply matching, timeouts, latency recording,
// the string-key convenience API, and the reply-timer model (one timer per
// client, so the event heap stays as deep as the packets in flight).

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "client/client.h"
#include "client/workload_driver.h"
#include "core/rack.h"
#include "net/link.h"
#include "net/simulator.h"
#include "workload/generator.h"

namespace netcache {
namespace {

constexpr IpAddress kClientIp = 0x0b000001;
constexpr IpAddress kServerIp = 0x0a000001;

Key K(uint64_t id) { return Key::FromUint64(id); }

// Echo peer: answers Gets with a canned value, Puts/Deletes with acks;
// optionally swallows queries to simulate loss.
class EchoPeer : public Node {
 public:
  EchoPeer() : Node("echo") {}
  void HandlePacket(const Packet& pkt, uint32_t) override {
    queries.push_back(pkt);
    if (swallow) {
      return;
    }
    Packet reply = pkt;
    reply.SwapSrcDst();
    switch (pkt.nc.op) {
      case OpCode::kGet:
        reply.nc.op = OpCode::kGetReply;
        reply.nc.has_value = respond_found;
        reply.nc.value = respond_found ? Value::Filler(7, 24) : Value{};
        break;
      case OpCode::kPut:
        reply.nc.op = OpCode::kPutReply;
        reply.nc.has_value = false;
        break;
      case OpCode::kDelete:
        reply.nc.op = OpCode::kDeleteReply;
        reply.nc.has_value = false;
        break;
      default:
        return;
    }
    Send(0, reply);
  }

  bool swallow = false;
  bool respond_found = true;
  std::vector<Packet> queries;
};

class ClientTest : public ::testing::Test {
 protected:
  ClientTest() {
    ClientConfig cfg;
    cfg.ip = kClientIp;
    cfg.reply_timeout = 1 * kMillisecond;
    client_ = std::make_unique<Client>(&sim_, "client", cfg);
    link_ = std::make_unique<Link>(&sim_, LinkConfig{});
    link_->Connect(client_.get(), 0, &peer_, 0);
  }

  // Every sent Get is answered, timed out, or still outstanding.
  void ExpectAccounted() const {
    const ClientStats& s = client_->stats();
    EXPECT_EQ(s.gets_sent, s.replies + s.timeouts + client_->Outstanding())
        << "at t=" << sim_.Now();
  }

  // The reply the peer would send to its i-th recorded query.
  Packet ReplyTo(size_t i) const {
    Packet reply = peer_.queries.at(i);
    reply.SwapSrcDst();
    reply.nc.op = OpCode::kGetReply;
    reply.nc.has_value = true;
    return reply;
  }

  Simulator sim_;
  EchoPeer peer_;
  std::unique_ptr<Client> client_;
  std::unique_ptr<Link> link_;
};

TEST_F(ClientTest, GetDeliversValueToCallback) {
  Status got_status = Status::Internal("never called");
  Value got_value;
  client_->Get(kServerIp, K(1), [&](const Status& s, const Value& v) {
    got_status = s;
    got_value = v;
  });
  sim_.RunAll();
  EXPECT_TRUE(got_status.ok());
  EXPECT_EQ(got_value, Value::Filler(7, 24));
  EXPECT_EQ(client_->stats().replies, 1u);
  EXPECT_EQ(client_->Outstanding(), 0u);
}

TEST_F(ClientTest, NotFoundSurfaced) {
  peer_.respond_found = false;
  Status got = Status::Ok();
  client_->Get(kServerIp, K(2), [&](const Status& s, const Value&) { got = s; });
  sim_.RunAll();
  EXPECT_EQ(got.code(), StatusCode::kNotFound);
  EXPECT_EQ(client_->stats().not_found, 1u);
}

TEST_F(ClientTest, PutAndDeleteComplete) {
  int done = 0;
  client_->Put(kServerIp, K(3), Value::Filler(3, 16),
               [&](const Status& s, const Value&) { done += s.ok() ? 1 : 0; });
  client_->Delete(kServerIp, K(3), [&](const Status& s, const Value&) { done += s.ok() ? 1 : 0; });
  sim_.RunAll();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(client_->stats().puts_sent, 1u);
  EXPECT_EQ(client_->stats().deletes_sent, 1u);
}

TEST_F(ClientTest, TimeoutWhenPeerSilent) {
  peer_.swallow = true;
  Status got = Status::Ok();
  client_->Get(kServerIp, K(4), [&](const Status& s, const Value&) { got = s; });
  sim_.RunAll();
  EXPECT_EQ(got.code(), StatusCode::kUnavailable);
  EXPECT_EQ(client_->stats().timeouts, 1u);
  EXPECT_EQ(client_->Outstanding(), 0u);
}

TEST_F(ClientTest, LateReplyAfterTimeoutIgnored) {
  peer_.swallow = true;
  client_->Get(kServerIp, K(5), [](const Status&, const Value&) {});
  sim_.RunAll();  // times out
  ASSERT_EQ(peer_.queries.size(), 1u);
  Packet late = peer_.queries[0];
  late.SwapSrcDst();
  late.nc.op = OpCode::kGetReply;
  late.nc.has_value = true;
  peer_.Send(0, late);
  sim_.RunAll();
  EXPECT_EQ(client_->stats().replies, 0u);  // dropped, no crash
}

TEST_F(ClientTest, SequenceNumbersDistinguishInflightQueries) {
  peer_.swallow = true;  // hold replies; answer manually out of order
  std::vector<int> done_order;
  client_->Get(kServerIp, K(1), [&](const Status&, const Value&) { done_order.push_back(1); });
  client_->Get(kServerIp, K(2), [&](const Status&, const Value&) { done_order.push_back(2); });
  sim_.RunUntil(100 * kMicrosecond);
  ASSERT_EQ(peer_.queries.size(), 2u);
  // Reply to the second query first.
  for (size_t i : {1ul, 0ul}) {
    Packet reply = peer_.queries[i];
    reply.SwapSrcDst();
    reply.nc.op = OpCode::kGetReply;
    reply.nc.has_value = true;
    peer_.Send(0, reply);
  }
  sim_.RunUntil(200 * kMicrosecond);
  EXPECT_EQ(done_order, (std::vector<int>{2, 1}));
}

TEST_F(ClientTest, LatencyRecorded) {
  client_->Get(kServerIp, K(1), [](const Status&, const Value&) {});
  sim_.RunAll();
  EXPECT_EQ(client_->latency().count(), 1u);
  EXPECT_GT(client_->latency().Mean(), 0.0);
}

TEST_F(ClientTest, StringKeyApi) {
  Status got = Status::Internal("pending");
  client_->Get(kServerIp, "user:42", [&](const Status& s, const Value&) { got = s; });
  sim_.RunAll();
  EXPECT_TRUE(got.ok());
  ASSERT_EQ(peer_.queries.size(), 1u);
  EXPECT_EQ(peer_.queries[0].nc.key, Key::FromString("user:42"));
}

struct Completion {
  int query;
  StatusCode code;
  SimTime at;
};

TEST_F(ClientTest, UnansweredQueriesTimeOutAtTheirOwnDeadlinesInSeqOrder) {
  peer_.swallow = true;
  const SimDuration timeout = client_->config().reply_timeout;
  std::vector<Completion> done;
  std::vector<SimTime> sent_at;
  for (int q = 1; q <= 5; ++q) {
    SimTime at = static_cast<SimTime>(q) * 37 * kMicrosecond;
    sent_at.push_back(at);
    sim_.ScheduleAt(at, [this, q, &done] {
      client_->Get(kServerIp, K(static_cast<uint64_t>(q)), [this, q, &done](const Status& s,
                                                                         const Value&) {
        done.push_back({q, s.code(), sim_.Now()});
        ExpectAccounted();
      });
      ExpectAccounted();
    });
  }
  sim_.RunUntil(300 * kMicrosecond);
  ASSERT_EQ(peer_.queries.size(), 5u);
  EXPECT_EQ(client_->Outstanding(), 5u);
  ExpectAccounted();

  // Answer #2 and #4 well before any deadline.
  client_->HandlePacket(ReplyTo(1), 0);
  ExpectAccounted();
  client_->HandlePacket(ReplyTo(3), 0);
  ExpectAccounted();
  EXPECT_EQ(client_->Outstanding(), 3u);

  sim_.RunAll();
  std::vector<Completion> want = {
      {2, StatusCode::kOk, 300 * kMicrosecond},
      {4, StatusCode::kOk, 300 * kMicrosecond},
      {1, StatusCode::kUnavailable, sent_at[0] + timeout},
      {3, StatusCode::kUnavailable, sent_at[2] + timeout},
      {5, StatusCode::kUnavailable, sent_at[4] + timeout},
  };
  ASSERT_EQ(done.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(done[i].query, want[i].query) << i;
    EXPECT_EQ(done[i].code, want[i].code) << i;
    EXPECT_EQ(done[i].at, want[i].at) << i;
  }
  EXPECT_EQ(client_->stats().replies, 2u);
  EXPECT_EQ(client_->stats().timeouts, 3u);
  EXPECT_EQ(client_->Outstanding(), 0u);
  ExpectAccounted();
}

TEST_F(ClientTest, ReplyExactlyAtDeadlineIsATimeout) {
  peer_.swallow = true;
  const SimDuration timeout = client_->config().reply_timeout;
  std::vector<StatusCode> codes(2, StatusCode::kInternal);
  // #1 is answered early; the reply to #2 lands exactly at #2's deadline, in
  // an event scheduled before the client's reply timer for that instant.
  client_->Get(kServerIp, K(1), [&](const Status& s, const Value&) { codes[0] = s.code(); });
  sim_.RunUntil(100 * kMicrosecond);
  client_->HandlePacket(ReplyTo(0), 0);
  sim_.RunUntil(500 * kMicrosecond);
  client_->Get(kServerIp, K(2), [&](const Status& s, const Value&) { codes[1] = s.code(); });
  sim_.RunUntil(600 * kMicrosecond);
  ASSERT_EQ(peer_.queries.size(), 2u);
  Packet late = ReplyTo(1);
  sim_.ScheduleAt(500 * kMicrosecond + timeout, [&] {
    client_->HandlePacket(late, 0);
    EXPECT_EQ(codes[1], StatusCode::kUnavailable);
    ExpectAccounted();
  });
  sim_.RunAll();
  EXPECT_EQ(codes[0], StatusCode::kOk);
  EXPECT_EQ(codes[1], StatusCode::kUnavailable);
  EXPECT_EQ(client_->stats().replies, 1u);
  EXPECT_EQ(client_->stats().timeouts, 1u);
  EXPECT_EQ(client_->latency().count(), 1u);
  ExpectAccounted();
}

TEST_F(ClientTest, DuplicateAndOutOfWindowRepliesChangeNoStats) {
  peer_.swallow = true;
  int callbacks = 0;
  for (uint64_t k = 1; k <= 3; ++k) {
    client_->Get(kServerIp, K(k), [&](const Status&, const Value&) { ++callbacks; });
  }
  sim_.RunUntil(100 * kMicrosecond);
  ASSERT_EQ(peer_.queries.size(), 3u);
  client_->HandlePacket(ReplyTo(0), 0);  // #1 answered: leaves the window
  client_->HandlePacket(ReplyTo(2), 0);  // #3 answered behind outstanding #2
  ASSERT_EQ(callbacks, 2);
  const ClientStats before = client_->stats();
  const uint64_t latency_before = client_->latency().count();

  Packet below = ReplyTo(0);  // below the window now
  Packet seq_zero = ReplyTo(0);
  seq_zero.nc.seq = 0;  // never used
  Packet beyond = ReplyTo(0);
  beyond.nc.seq = 1000;  // never sent
  for (const Packet& p : {ReplyTo(2), ReplyTo(2), below, seq_zero, beyond}) {
    client_->HandlePacket(p, 0);
    const ClientStats& s = client_->stats();
    EXPECT_EQ(s.replies, before.replies);
    EXPECT_EQ(s.timeouts, before.timeouts);
    EXPECT_EQ(s.not_found, before.not_found);
    EXPECT_EQ(client_->latency().count(), latency_before);
    EXPECT_EQ(client_->Outstanding(), 1u);
    EXPECT_EQ(callbacks, 2);
    ExpectAccounted();
  }

  client_->HandlePacket(ReplyTo(1), 0);  // #2 still counts
  EXPECT_EQ(client_->stats().replies, 3u);
  EXPECT_EQ(callbacks, 3);
  sim_.RunAll();
  EXPECT_EQ(client_->stats().timeouts, 0u);
  EXPECT_EQ(client_->Outstanding(), 0u);
  ExpectAccounted();
}

// A lost reply is a rare event; the reply timer must not turn every query
// into a pending heap event. An 8-server rack at 400K qps with a 10 ms reply
// timeout has only a handful of packets in flight at any instant, so the
// event heap must stay that shallow too (one timer event per query would keep
// about 4,000 pending).
TEST(ClientTimerTest, EventHeapStaysAsDeepAsPacketsInFlight) {
  RackConfig cfg;
  cfg.num_servers = 8;
  cfg.num_clients = 1;
  cfg.cache_enabled = false;
  cfg.client_template.reply_timeout = 10 * kMillisecond;
  cfg.server_template.service_rate_qps = 1e6;
  Rack rack(cfg);
  constexpr uint64_t kKeys = 1000;
  rack.Populate(kKeys, 64);
  WorkloadConfig wl;
  wl.num_keys = kKeys;
  wl.zipf_alpha = 0.9;
  WorkloadGenerator gen(wl);
  DriverConfig dc;
  dc.rate_qps = 400e3;
  WorkloadDriver driver(&rack.sim(), &rack.client(0), &gen, rack.OwnerFn(), dc);
  driver.Start();
  rack.sim().RunUntil(25 * kMillisecond);
  driver.Stop();
  rack.sim().RunAll();

  const ClientStats& s = rack.client(0).stats();
  EXPECT_GE(s.gets_sent, 9000u);
  EXPECT_EQ(s.replies + s.timeouts, s.gets_sent);
  EXPECT_EQ(rack.client(0).Outstanding(), 0u);
  EXPECT_LT(rack.sim().event_queue_peak(), 64u);
}

}  // namespace
}  // namespace netcache

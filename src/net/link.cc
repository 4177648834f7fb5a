#include "net/link.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/profiler.h"

namespace netcache {

Link::Link(Simulator* sim, const LinkConfig& config)
    : sim_(sim),
      config_(config),
      loss_rng_{Rng(config.loss_seed), Rng(config.loss_seed ^ 0x6a09e667f3bcc909ULL)} {
  NC_CHECK(config.bandwidth_gbps > 0.0);
  NC_CHECK(config.loss_rate >= 0.0 && config.loss_rate < 1.0);
  // 8 bits/byte over gbps == exactly 8000/gbps picoseconds per byte. The
  // double->integer conversion happens once here instead of per packet, so
  // deadline chains accumulate exactly (40 Gb/s -> exactly 200 ps/byte).
  ps_per_byte_ = std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(8000.0 / config.bandwidth_gbps)));
}

void Link::Connect(Node* a, uint32_t a_port, Node* b, uint32_t b_port) {
  ends_[0] = Endpoint{a, a_port};
  ends_[1] = Endpoint{b, b_port};
  a->AttachLink(a_port, this, 0);
  b->AttachLink(b_port, this, 1);
}

void Link::Transmit(int from_end, const Packet& pkt) {
  NC_CHECK(from_end == 0 || from_end == 1);
  NC_CHECK(ends_[0].node != nullptr && ends_[1].node != nullptr) << "link not connected";
  Direction& dir = dirs_[from_end];
  size_t bytes = pkt.WireSize();
  ++dir.stats.offered;

  if (config_.loss_rate > 0.0 && loss_rng_[from_end].NextBernoulli(config_.loss_rate)) {
    ++dir.stats.lost;
    return;
  }
  if (dir.queued_bytes + bytes > config_.queue_bytes) {
    ++dir.stats.dropped;
    return;
  }
  dir.queued_bytes += bytes;
  ++dir.stats.in_flight;

  uint64_t now_ps = static_cast<uint64_t>(sim_->Now()) * 1000;
  uint64_t start_ps = std::max(now_ps, dir.busy_until_ps);
  uint64_t tx_done_ps = start_ps + static_cast<uint64_t>(bytes) * ps_per_byte_;
  dir.busy_until_ps = tx_done_ps;
  // Ceil back to the simulator's ns grid: tx_done_ps >= now_ps guarantees
  // tx_done >= Now(), so the schedule-into-the-past check can never fire no
  // matter how long the back-to-back chain gets.
  SimTime tx_done = static_cast<SimTime>((tx_done_ps + 999) / 1000);

  // The in-flight copy lives in the simulator's packet pool. Every
  // transmission accepted within one instant joins the direction's open
  // transmit group; the whole group is delivered together at the LAST
  // member's serialization end plus propagation (the far NIC raises one
  // interrupt for the back-to-back train). Delivery accounting happens in
  // Link::AccountDelivery.
  Packet* in_flight = sim_->packet_pool().Acquire(pkt);
  SimTime now = sim_->Now();
  if (dir.group != nullptr && dir.group->open_time == now) {
    // Join the open group. The deadline chain is monotone, so this member's
    // tx_done is the group's new serialization end. Queue-free stays a plain
    // closure (the first member's closure flushes the group).
    dir.group->entries.emplace_back(in_flight, static_cast<uint32_t>(bytes));
    dir.group->last_tx_done = tx_done;
    sim_->ScheduleAt(tx_done, [this, from_end, bytes] { dirs_[from_end].queued_bytes -= bytes; });
    return;
  }
  EgressBurst* g = sim_->AcquireEgressBurst();
  g->open_time = now;
  g->last_tx_done = tx_done;
  g->entries.emplace_back(in_flight, static_cast<uint32_t>(bytes));
  dir.group = g;
  // The first member's queue-free closure also closes and flushes the group.
  // Its tx_done lands strictly after the open instant on the ns grid
  // (bytes >= 1, ps_per_byte >= 1), so every same-instant transmit has
  // already joined by the time it runs; the guard handles a group already
  // displaced by a later instant's opener.
  sim_->ScheduleAt(tx_done, [this, from_end, bytes, g] {
    Direction& d = dirs_[from_end];
    d.queued_bytes -= bytes;
    if (d.group == g) {
      d.group = nullptr;
    }
    FlushGroup(g, from_end);
  });
}

void Link::FlushGroup(EgressBurst* g, int from_end) {
  ProfScope prof(ProfCat::kEgressFlush);
  prof.set_arg(g->entries.size());
  Endpoint to = ends_[1 - from_end];
  SimTime deliver_at = g->last_tx_done + config_.propagation;
  if (g->entries.size() == 1) {
    // Degenerate group: one plain record, identical to the pre-group model.
    auto [pkt, bytes] = g->entries[0];
    sim_->ScheduleDeliveryAt(deliver_at,
                             Simulator::DeliveryRec{to.node, to.port, pkt, this, from_end, bytes});
    sim_->ReleaseEgressBurst(g);
    return;
  }
  if (sim_->egress_batching()) {
    // The group rides as one record; the dispatcher weighs it as
    // entries.size() events and the receiver releases the buffer.
    uint32_t total = 0;
    for (const auto& [pkt, bytes] : g->entries) {
      total += bytes;
    }
    sim_->ScheduleDeliveryAt(
        deliver_at,
        Simulator::DeliveryRec{to.node, to.port, nullptr, this, from_end, total, g});
    return;
  }
  // Equivalence leg (--no-egress-batch): per-packet records at the group's
  // shared instant. Scheduled back-to-back from one stream, their keys are
  // consecutive, so the dispatcher coalesces them into exactly the burst the
  // single record would have produced.
  for (const auto& [pkt, bytes] : g->entries) {
    sim_->ScheduleDeliveryAt(deliver_at,
                             Simulator::DeliveryRec{to.node, to.port, pkt, this, from_end, bytes});
  }
  sim_->ReleaseEgressBurst(g);
}

}  // namespace netcache

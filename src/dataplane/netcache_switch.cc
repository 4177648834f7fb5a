#include "dataplane/netcache_switch.h"

#include <bit>

#include "common/logging.h"
#include "common/profiler.h"
#include "common/trace_recorder.h"

namespace netcache {

NetCacheSwitch::NetCacheSwitch(Simulator* sim, std::string name, const SwitchConfig& config)
    : Node(std::move(name)),
      sim_(sim),
      config_(config),
      lookup_(config.cache_capacity),
      status_(config.cache_capacity, 0),
      dirty_(config.cache_capacity, 0),
      value_size_(config.cache_capacity, 0),
      stats_(config.stats),
      pipe_value_reads_(config.num_pipes, 0),
      pipe_busy_until_(config.num_pipes, 0) {
  NC_CHECK(config.num_pipes > 0);
  NC_CHECK(config.stats.counter_slots >= config.cache_capacity)
      << "need one counter per cache entry";
  pipes_.reserve(config.num_pipes);
  for (size_t p = 0; p < config.num_pipes; ++p) {
    pipes_.emplace_back(config.num_stages, config.indexes_per_pipe);
  }
  free_key_indexes_.reserve(config.cache_capacity);
  for (size_t i = config.cache_capacity; i > 0; --i) {
    free_key_indexes_.push_back(static_cast<uint32_t>(i - 1));
  }
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

void NetCacheSwitch::HandlePacket(const Packet& pkt, uint32_t in_port) {
  NC_CHECK(sim_ != nullptr) << "switch not attached to a simulator";
  scratch_emits_.clear();
  ProcessPacket(pkt, in_port, scratch_emits_);
  for (auto& emit : scratch_emits_) {
    // Park the outgoing packet in the pool so the emit closure stays within
    // the inline-event capture budget (no per-emit heap allocation).
    Packet* out_pkt = sim_->packet_pool().Acquire();
    *out_pkt = std::move(emit.pkt);
    ScheduleEmit(emit.port, out_pkt);
  }
}

void NetCacheSwitch::ScheduleEmit(uint32_t port, Packet* out_pkt) {
  SimDuration delay = config_.pipeline_latency;
  if (config_.pipe_rate_qps > 0.0) {
    // §4.4.4 per-pipe bound: each packet occupies its egress pipe for
    // 1/rate; beyond the pipe's backlog budget, shed the packet.
    size_t pipe = PipeOfPort(port);
    SimDuration slot = static_cast<SimDuration>(1e9 / config_.pipe_rate_qps);
    SimTime start = std::max(sim_->Now(), pipe_busy_until_[pipe]);
    SimTime backlog = start - sim_->Now();
    if (backlog > slot * config_.pipe_queue_packets) {
      ++counters_.pipe_overload_drops;
      sim_->packet_pool().Release(out_pkt);
      return;
    }
    pipe_busy_until_[pipe] = start + slot;
    delay = (start + slot) - sim_->Now() + config_.pipeline_latency;
  }
  // Node-affine: the egress pipeline runs in the switch's partition.
  sim_->ScheduleFor(this, delay, [this, port, out_pkt] {
    Send(port, *out_pkt);
    sim_->packet_pool().Release(out_pkt);
  });
}

std::vector<NetCacheSwitch::Emit> NetCacheSwitch::ProcessPacket(const Packet& pkt,
                                                                uint32_t in_port) {
  std::vector<Emit> out;
  ProcessPacket(pkt, in_port, out);
  return out;
}

void NetCacheSwitch::ProcessPacket(const Packet& pkt, uint32_t in_port,
                                   std::vector<Emit>& out) {
  size_t first_emit = out.size();
  ++counters_.packets;

  // Parser: only packets on the reserved L4 port run the NetCache modules;
  // everything else is plain L2/L3 traffic (§4.1).
  if (!IsNetCacheQuery(pkt)) {
    ForwardByDst(Packet(pkt), out);
    ApplySnakeForward(in_port, out, first_emit);
    return;
  }
  ++counters_.netcache_queries;

  Packet work = pkt;
  if (work.nc.op == OpCode::kGet) {
    ProcessRead(work, out);  // digests the key in its first stage
    ApplySnakeForward(in_port, out, first_emit);
    return;
  }
  // Ingress hash engine: one pass over the key; every downstream table,
  // sketch, and server-side index derives from the digest (or reuses one a
  // previous hop already computed).
  if (work.digest.Empty()) {
    work.digest = KeyDigest::Of(work.nc.key);
  }
  switch (work.nc.op) {
    case OpCode::kPut:
    case OpCode::kDelete:
      ProcessWrite(work, out);
      break;
    case OpCode::kCacheUpdate:
      ProcessCacheUpdate(work, out);
      break;
    default:
      // Replies and acks pass through to their destination.
      ForwardByDst(std::move(work), out);
      break;
  }
  ApplySnakeForward(in_port, out, first_emit);
}

void NetCacheSwitch::ApplySnakeForward(uint32_t in_port, std::vector<Emit>& out, size_t first) {
  if (in_port >= snake_.size() || !snake_[in_port].has_value()) {
    return;
  }
  const SnakeHop& hop = *snake_[in_port];
  for (size_t i = first; i < out.size(); ++i) {
    Emit& emit = out[i];
    emit.port = hop.out_port;
    if (hop.strip_value && emit.pkt.nc.op == OpCode::kGetReply) {
      // Rewind a served reply into a fresh query for the next snake pass.
      emit.pkt.nc.op = OpCode::kGet;
      emit.pkt.nc.has_value = false;
      emit.pkt.nc.value = Value{};
      emit.pkt.SwapSrcDst();
    }
  }
}

Status NetCacheSwitch::SetSnakeForward(uint32_t in_port, uint32_t out_port, bool strip_value) {
  const size_t radix = config_.num_pipes * config_.ports_per_pipe;
  if (in_port >= radix || out_port >= radix) {
    return Status::InvalidArgument("snake port beyond switch radix");
  }
  if (in_port >= snake_.size()) {
    snake_.resize(in_port + 1);
  }
  snake_[in_port] = SnakeHop{out_port, strip_value};
  return Status::Ok();
}

void NetCacheSwitch::ProcessRead(Packet& pkt, std::vector<Emit>& out) {
  ++counters_.reads;
  {
    // Stage 1, ingress hash engine: one pass over the key; the match probe,
    // sketch and server-side index all derive from the digest (or reuse one
    // a previous hop already computed).
    ProfScope prof(ProfCat::kSwitchDigest);
    prof.set_arg(1);
    if (pkt.digest.Empty()) {
      pkt.digest = KeyDigest::Of(pkt.nc.key);
    }
  }
  const CacheAction* action = nullptr;
  bool valid = false;
  {
    // Stage 2, cache lookup + cache status (Alg 1 line 2): the match probe
    // reuses the digest's first hash instead of re-hashing the key.
    ProfScope prof(ProfCat::kSwitchMatchPeek);
    prof.set_arg(1);
    action = lookup_.MatchWithHash(pkt.nc.key, static_cast<size_t>(pkt.digest.h1));
    valid = action != nullptr && status_.Read(action->key_index) != 0;
  }
  // Stage 3, query statistics + value stages + emit.
  ProfScope prof(ProfCat::kSwitchValueServe);
  prof.set_arg(1);
  if (valid) {
    // Cache hit on a valid entry: serve from the egress pipe's value stages.
    ++counters_.cache_hits;
    if (TraceEnabled()) {
      TraceSpan(TraceEvent::kSwitchHit, TraceQueryId(pkt), sim_ != nullptr ? sim_->Now() : 0,
                config_.switch_ip);
    }
    stats_.OnCachedRead(action->key_index);  // Alg 1 line 5
    ++pipe_value_reads_[action->pipe];

    size_t size = value_size_.Read(action->key_index);
    // Alg 1 lines 3-4: assemble the value straight into the packet's value
    // field (no temporary Value copy on the bounce path).
    pipes_[action->pipe].values.ReadValueInto(action->bitmap, action->value_index, size,
                                              &pkt.nc.value);
    pkt.nc.has_value = true;
    pkt.nc.op = OpCode::kGetReply;
    // Bounce straight back to the client: swap L2-L4 addresses, route by the
    // (now-destination) client address, mirror out the upstream port (§4.4.4).
    pkt.SwapSrcDst();
    ForwardByDst(std::move(pkt), out);
    return;
  }

  // Miss (or cached-but-invalid, which Alg 1 treats the same): count toward
  // heavy-hitter detection and forward to the storage server.
  if (action != nullptr) {
    ++counters_.cache_invalid;
  } else {
    ++counters_.cache_misses;
  }
  if (TraceEnabled()) {
    TraceSpan(action != nullptr ? TraceEvent::kSwitchInvalid : TraceEvent::kSwitchMiss,
              TraceQueryId(pkt), sim_ != nullptr ? sim_->Now() : 0, config_.switch_ip);
  }
  if (stats_.OnUncachedRead(pkt.nc.key, pkt.digest)) {  // Alg 1 lines 7-9
    ++counters_.hot_reports;
    if (hot_report_) {
      hot_report_(pkt.nc.key, stats_.SketchEstimate(pkt.nc.key));
    }
  }
  ForwardByDst(std::move(pkt), out);
}

void NetCacheSwitch::ProcessWrite(Packet& pkt, std::vector<Emit>& out) {
  ++counters_.writes;
  const CacheAction* action =
      lookup_.MatchWithHash(pkt.nc.key, static_cast<size_t>(pkt.digest.h1));  // Alg 1 line 11
  if (action != nullptr && config_.write_back && pkt.nc.op == OpCode::kPut &&
      pkt.nc.value.NumUnits() <= static_cast<size_t>(std::popcount(action->bitmap))) {
    // Experimental §5 write-back: absorb the write in the switch. The entry
    // stays valid with the fresh value, the dirty bit records the pending
    // flush, and the client is answered directly — the server never sees
    // this write until the controller drains dirty entries.
    pipes_[action->pipe].values.WriteValue(action->bitmap, action->value_index, pkt.nc.value);
    value_size_.Write(action->key_index, static_cast<uint8_t>(pkt.nc.value.size()));
    status_.Write(action->key_index, 1);
    dirty_.Write(action->key_index, 1);
    ++counters_.write_back_hits;
    if (TraceEnabled()) {
      TraceSpan(TraceEvent::kSwitchWriteBack, TraceQueryId(pkt),
                sim_ != nullptr ? sim_->Now() : 0, config_.switch_ip);
    }
    Packet reply = MakeReplyShell(pkt);
    reply.nc.op = OpCode::kPutReply;
    ForwardByDst(std::move(reply), out);
    return;
  }
  if (action != nullptr) {
    // Invalidate so later reads go to the server until it refreshes the
    // cache, and mark the op so the server knows the key is cached (§4.3).
    status_.Write(action->key_index, 0);  // Alg 1 line 12
    ++counters_.invalidations;
    pkt.nc.op = pkt.nc.op == OpCode::kPut || pkt.nc.op == OpCode::kCachedPut
                    ? OpCode::kCachedPut
                    : OpCode::kCachedDelete;
  }
  ForwardByDst(std::move(pkt), out);  // Alg 1 line 13
}

void NetCacheSwitch::ProcessCacheUpdate(Packet& pkt, std::vector<Emit>& out) {
  const CacheAction* action =
      lookup_.MatchWithHash(pkt.nc.key, static_cast<size_t>(pkt.digest.h1));
  // Header-only reply shell: the ack never carries the value, so don't copy it.
  Packet reply = MakeReplyShell(pkt);

  if (action == nullptr) {
    // Key was evicted while the write was in flight; ack so the server
    // unblocks — the authoritative copy lives on the server anyway.
    reply.nc.op = OpCode::kCacheUpdateAck;
    ForwardByDst(std::move(reply), out);
    return;
  }
  if (!pkt.nc.has_value) {
    // Refresh after a CachedDelete: there is nothing to serve, so the entry
    // stays invalid until the controller evicts or re-inserts it.
    status_.Write(action->key_index, 0);
    ++counters_.cache_updates;
    reply.nc.op = OpCode::kCacheUpdateAck;
    ForwardByDst(std::move(reply), out);
    return;
  }
  size_t allocated_units = static_cast<size_t>(std::popcount(action->bitmap));
  if (pkt.nc.value.NumUnits() > allocated_units) {
    // §4.3: data-plane updates only for values no larger than the old ones.
    // The server holds a newer value we cannot store, so the entry must not
    // serve reads until the control plane re-installs it.
    status_.Write(action->key_index, 0);
    ++counters_.update_rejects;
    reply.nc.op = OpCode::kCacheUpdateReject;
    ForwardByDst(std::move(reply), out);
    return;
  }
  pipes_[action->pipe].values.WriteValue(action->bitmap, action->value_index, pkt.nc.value);
  value_size_.Write(action->key_index, static_cast<uint8_t>(pkt.nc.value.size()));
  status_.Write(action->key_index, 1);  // valid again; serves reads at line rate
  ++counters_.cache_updates;
  reply.nc.op = OpCode::kCacheUpdateAck;
  ForwardByDst(std::move(reply), out);
}

void NetCacheSwitch::ForwardByDst(Packet&& pkt, std::vector<Emit>& out) {
  const uint32_t* port = routes_.Find(pkt.ip.dst);
  if (port == nullptr) {
    ++counters_.unroutable;
    NC_LOG(DEBUG) << name() << ": no route for " << pkt.ip.dst;
    return;
  }
  // Standard IPv4 loop protection: decrement TTL, drop at zero. Keeps a
  // routing misconfiguration (or a snake wired into a cycle) from looping
  // packets forever.
  if (pkt.ip.ttl == 0) {
    ++counters_.ttl_drops;
    return;
  }
  --pkt.ip.ttl;
  ++counters_.forwarded;
  out.push_back(Emit{*port, std::move(pkt)});
}

// ---------------------------------------------------------------------------
// Control plane (switch driver API)
// ---------------------------------------------------------------------------

Status NetCacheSwitch::AddRoute(IpAddress ip, uint32_t port) {
  if (port >= config_.num_pipes * config_.ports_per_pipe) {
    return Status::InvalidArgument("port beyond switch radix");
  }
  routes_.Upsert(ip, port);
  return Status::Ok();
}

std::optional<uint32_t> NetCacheSwitch::RouteOf(IpAddress ip) const {
  const uint32_t* port = routes_.Find(ip);
  if (port == nullptr) {
    return std::nullopt;
  }
  return *port;
}

Status NetCacheSwitch::InsertCacheEntry(const Key& key, const Value& value, IpAddress server_ip) {
  if (lookup_.Match(key) != nullptr) {
    return Status::AlreadyExists("key already cached");
  }
  if (value.empty()) {
    return Status::InvalidArgument("cannot cache empty value");
  }
  auto route = RouteOf(server_ip);
  if (!route.has_value()) {
    return Status::InvalidArgument("no route to owning server");
  }
  size_t pipe = PipeOfPort(*route);

  if (free_key_indexes_.empty()) {
    return Status::ResourceExhausted("cache full (no key index)");
  }

  std::optional<SlotAllocation> alloc = pipes_[pipe].allocator.Insert(key, value.NumUnits());
  if (!alloc.has_value()) {
    return Status::ResourceExhausted("no row with enough free slots in pipe");
  }

  uint32_t key_index = free_key_indexes_.back();
  CacheAction action;
  action.bitmap = alloc->bitmap;
  action.value_index = static_cast<uint32_t>(alloc->index);
  action.key_index = key_index;
  action.pipe = static_cast<uint8_t>(pipe);
  Status st = lookup_.InsertEntry(key, action);
  if (!st.ok()) {
    pipes_[pipe].allocator.Evict(key);
    return st;
  }
  free_key_indexes_.pop_back();

  pipes_[pipe].values.WriteValue(action.bitmap, action.value_index, value);
  value_size_.Write(key_index, static_cast<uint8_t>(value.size()));
  stats_.ClearCounter(key_index);
  dirty_.Write(key_index, 0);
  status_.Write(key_index, 1);
  return Status::Ok();
}

Status NetCacheSwitch::EvictCacheEntry(const Key& key) {
  const CacheAction* action = lookup_.Match(key);
  if (action == nullptr) {
    return Status::NotFound("key not cached");
  }
  CacheAction copy = *action;
  status_.Write(copy.key_index, 0);
  dirty_.Write(copy.key_index, 0);
  stats_.ClearCounter(copy.key_index);
  NC_CHECK(pipes_[copy.pipe].allocator.Evict(key));
  NC_CHECK(lookup_.RemoveEntry(key).ok());
  free_key_indexes_.push_back(copy.key_index);
  return Status::Ok();
}

size_t NetCacheSwitch::Defragment(size_t pipe, size_t needed_units) {
  NC_CHECK(pipe < pipes_.size());
  PipeState& ps = pipes_[pipe];
  std::vector<SlotMove> plan = ps.allocator.PlanReorganization(needed_units);
  size_t moved = 0;
  for (const SlotMove& move : plan) {
    const CacheAction* action = lookup_.Match(move.key);
    if (action == nullptr || action->pipe != pipe) {
      continue;  // evicted since planning
    }
    CacheAction updated = *action;
    // Take the entry off the fast path while its value moves between rows.
    uint8_t was_valid = status_.Read(updated.key_index);
    status_.Write(updated.key_index, 0);
    size_t size = value_size_.Read(updated.key_index);
    Value v = ps.values.ReadValue(move.from.bitmap, move.from.index, size);
    if (!ps.allocator.Commit(move)) {
      status_.Write(updated.key_index, was_valid);
      continue;
    }
    ps.values.WriteValue(move.to.bitmap, move.to.index, v);
    updated.bitmap = move.to.bitmap;
    updated.value_index = static_cast<uint32_t>(move.to.index);
    NC_CHECK(lookup_.ModifyEntry(move.key, updated).ok());
    status_.Write(updated.key_index, was_valid);
    ++moved;
  }
  return moved;
}

std::vector<std::pair<Key, Value>> NetCacheSwitch::DrainDirty() {
  std::vector<std::pair<Key, Value>> out;
  if (!config_.write_back) {
    return out;
  }
  lookup_.ForEachEntry([this, &out](const Key& key, const CacheAction& action) {
    if (dirty_.Read(action.key_index) != 0) {
      size_t size = value_size_.Read(action.key_index);
      out.emplace_back(key,
                       pipes_[action.pipe].values.ReadValue(action.bitmap, action.value_index,
                                                            size));
      dirty_.Write(action.key_index, 0);
    }
  });
  return out;
}

bool NetCacheSwitch::IsDirty(const Key& key) const {
  const CacheAction* action = lookup_.Match(key);
  return action != nullptr && dirty_.Read(action->key_index) != 0;
}

uint32_t NetCacheSwitch::ReadCounterFor(const Key& key) const {
  const CacheAction* action = lookup_.Match(key);
  if (action == nullptr) {
    return 0;
  }
  return stats_.ReadCounter(action->key_index);
}

std::vector<std::pair<Key, uint32_t>> NetCacheSwitch::ReadCacheCounters() const {
  std::vector<std::pair<Key, uint32_t>> out;
  out.reserve(lookup_.size());
  lookup_.ForEachEntry([&](const Key& key, const CacheAction& action) {
    out.emplace_back(key, stats_.ReadCounter(action.key_index));
  });
  return out;
}

bool NetCacheSwitch::IsValid(const Key& key) const {
  const CacheAction* action = lookup_.Match(key);
  return action != nullptr && status_.Read(action->key_index) != 0;
}

Result<Value> NetCacheSwitch::ReadCachedValue(const Key& key) const {
  const CacheAction* action = lookup_.Match(key);
  if (action == nullptr) {
    return Status::NotFound("key not cached");
  }
  size_t size = value_size_.Read(action->key_index);
  return pipes_[action->pipe].values.ReadValue(action->bitmap, action->value_index, size);
}

std::vector<Key> NetCacheSwitch::CachedKeys() const {
  std::vector<Key> keys;
  keys.reserve(lookup_.size());
  lookup_.ForEachEntry([&keys](const Key& key, const CacheAction&) { keys.push_back(key); });
  return keys;
}

std::optional<CacheAction> NetCacheSwitch::LookupAction(const Key& key) const {
  const CacheAction* action = lookup_.Match(key);
  if (action == nullptr) {
    return std::nullopt;
  }
  return *action;
}

Status NetCacheSwitch::CheckInvariants() const {
  // Key-index accounting: live entries + free list must cover the capacity.
  if (lookup_.size() + free_key_indexes_.size() != config_.cache_capacity) {
    return Status::Internal("key-index leak: live + free != capacity");
  }
  std::vector<uint8_t> index_used(config_.cache_capacity, 0);
  for (uint32_t idx : free_key_indexes_) {
    if (idx >= config_.cache_capacity || index_used[idx]) {
      return Status::Internal("free list corrupt");
    }
    index_used[idx] = 1;
  }
  Status failure = Status::Ok();
  std::vector<size_t> pipe_items(pipes_.size(), 0);
  lookup_.ForEachEntry([&](const Key& key, const CacheAction& action) {
    if (!failure.ok()) {
      return;
    }
    if (action.key_index >= config_.cache_capacity || index_used[action.key_index]) {
      failure = Status::Internal("key index double-used or out of range");
      return;
    }
    index_used[action.key_index] = 1;
    if (action.pipe >= pipes_.size()) {
      failure = Status::Internal("bad pipe in action data");
      return;
    }
    ++pipe_items[action.pipe];
    // The lookup action must agree with the pipe allocator's record.
    auto alloc = pipes_[action.pipe].allocator.Lookup(key);
    if (!alloc.has_value() || alloc->index != action.value_index ||
        alloc->bitmap != action.bitmap) {
      failure = Status::Internal("lookup action disagrees with slot allocator");
      return;
    }
    // Stored size must fit the allocated units.
    size_t size = value_size_.Read(action.key_index);
    if (size > static_cast<size_t>(std::popcount(action.bitmap)) * kValueUnitSize) {
      failure = Status::Internal("value size exceeds allocated slots");
    }
  });
  if (!failure.ok()) {
    return failure;
  }
  for (size_t p = 0; p < pipes_.size(); ++p) {
    if (pipes_[p].allocator.num_items() != pipe_items[p]) {
      return Status::Internal("allocator holds items absent from the lookup table");
    }
    // Deep audit of the Alg-2 bookkeeping itself: no double-assigned slots,
    // free bits really free, no leaked slots.
    Status alloc_ok = pipes_[p].allocator.CheckConsistency();
    if (!alloc_ok.ok()) {
      return alloc_ok;
    }
  }
  return Status::Ok();
}

void NetCacheSwitch::ClearCache() {
  std::vector<Key> keys;
  keys.reserve(lookup_.size());
  lookup_.ForEachEntry([&keys](const Key& key, const CacheAction&) { keys.push_back(key); });
  for (const Key& key : keys) {
    NC_CHECK(EvictCacheEntry(key).ok());
  }
  stats_.ResetEpoch();
}

void NetCacheSwitch::RegisterMetrics(MetricsRegistry& registry, const std::string& prefix,
                                     MetricsRegistry::Labels labels) const {
  const SwitchCounters& c = counters_;
  registry.AddCounter(prefix + ".packets", &c.packets, labels);
  registry.AddCounter(prefix + ".netcache_queries", &c.netcache_queries, labels);
  registry.AddCounter(prefix + ".reads", &c.reads, labels);
  registry.AddCounter(prefix + ".writes", &c.writes, labels);
  registry.AddCounter(prefix + ".cache_hits", &c.cache_hits, labels);
  registry.AddCounter(prefix + ".cache_invalid", &c.cache_invalid, labels);
  registry.AddCounter(prefix + ".cache_misses", &c.cache_misses, labels);
  registry.AddCounter(prefix + ".invalidations", &c.invalidations, labels);
  registry.AddCounter(prefix + ".cache_updates", &c.cache_updates, labels);
  registry.AddCounter(prefix + ".update_rejects", &c.update_rejects, labels);
  registry.AddCounter(prefix + ".write_back_hits", &c.write_back_hits, labels);
  registry.AddCounter(prefix + ".hot_reports", &c.hot_reports, labels);
  registry.AddCounter(prefix + ".forwarded", &c.forwarded, labels);
  registry.AddCounter(prefix + ".unroutable", &c.unroutable, labels);
  registry.AddCounter(prefix + ".ttl_drops", &c.ttl_drops, labels);
  registry.AddCounter(prefix + ".pipe_overload_drops", &c.pipe_overload_drops, labels);
  registry.AddGauge(
      prefix + ".cache_size", [this] { return static_cast<double>(lookup_.size()); }, labels);
  registry.AddGauge(
      prefix + ".cache_capacity",
      [this] { return static_cast<double>(config_.cache_capacity); }, labels);
  stats_.RegisterMetrics(registry, prefix + ".stats", labels);
}

ResourceReport NetCacheSwitch::Resources() const {
  ResourceReport r;
  r.lookup_entries = lookup_.size();
  r.lookup_capacity = lookup_.capacity();
  // Per entry: 16-byte key match + action data (bitmap 8b + value index 17b +
  // key index 17b + pipe 2b + overhead), rounded to 24 bytes; replicated in
  // every ingress pipe (§4.4.4).
  r.lookup_bits = lookup_.capacity() * 24 * 8 * config_.num_pipes;
  for (const auto& pipe : pipes_) {
    r.value_bits += pipe.values.MemoryBits();
  }
  r.status_bits = status_.size() * 1;  // 1 valid bit per entry in hardware
  r.size_reg_bits = value_size_.MemoryBits();
  r.counter_bits = config_.stats.counter_slots * 16;
  r.sketch_bits = config_.stats.hh.sketch_depth * config_.stats.hh.sketch_width * 16;
  r.bloom_bits = config_.stats.hh.bloom_hashes * config_.stats.hh.bloom_bits;
  r.total_bits = r.lookup_bits + r.value_bits + r.status_bits + r.size_reg_bits +
                 r.counter_bits + r.sketch_bits + r.bloom_bits;
  return r;
}

}  // namespace netcache

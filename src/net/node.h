// Simulation node and port plumbing.
//
// A Node is anything with ports that can receive packets: a client host, a
// storage server, or a switch. Links connect two (node, port) endpoints.

#ifndef NETCACHE_NET_NODE_H_
#define NETCACHE_NET_NODE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "proto/packet.h"

namespace netcache {

class Link;

// One packet of a coalesced delivery burst. `pkt` points into the simulator's
// packet pool; a HandleBurst override may steal a packet (rewrite it in place
// and re-schedule it) by nulling the pointer — the dispatcher releases every
// pointer still non-null after the call.
struct BurstArrival {
  Packet* pkt = nullptr;
  uint32_t port = 0;
};

class Node {
 public:
  explicit Node(std::string name) : name_(std::move(name)) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // Invoked by the link when a packet arrives on `in_port`.
  virtual void HandlePacket(const Packet& pkt, uint32_t in_port) = 0;

  // Invoked by the simulator when several deliveries to this node land at the
  // same timestamp (VPP-style burst). Arrivals are in event tie-break order;
  // the default keeps single-packet semantics exactly.
  virtual void HandleBurst(BurstArrival* arrivals, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      HandlePacket(*arrivals[i].pkt, arrivals[i].port);
    }
  }

  // Wires `link` end `end` (0 or 1) to local port `port`. Called by
  // Link::Connect; not by users.
  void AttachLink(uint32_t port, Link* link, int end);

  // Transmits `pkt` out of local port `port`. No-op with a warning if the
  // port has no link.
  void Send(uint32_t port, const Packet& pkt);

  const std::string& name() const { return name_; }
  size_t num_ports() const { return links_.size(); }

 private:
  struct PortSlot {
    Link* link = nullptr;
    int end = 0;
  };

  std::string name_;
  std::vector<PortSlot> links_;
};

}  // namespace netcache

#endif  // NETCACHE_NET_NODE_H_

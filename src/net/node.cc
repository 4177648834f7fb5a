#include "net/node.h"

#include "common/logging.h"
#include "net/link.h"

namespace netcache {

void Node::AttachLink(uint32_t port, Link* link, int end) {
  if (port >= links_.size()) {
    links_.resize(port + 1);
  }
  NC_CHECK(links_[port].link == nullptr) << name_ << " port " << port << " already attached";
  links_[port] = PortSlot{link, end};
}

void Node::Send(uint32_t port, const Packet& pkt) {
  if (port >= links_.size() || links_[port].link == nullptr) {
    NC_LOG(WARN) << name_ << ": send on unwired port " << port << " (" << pkt.Summary() << ")";
    return;
  }
  links_[port].link->Transmit(links_[port].end, pkt);
}

}  // namespace netcache

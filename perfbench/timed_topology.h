// Benchmark-side copies of the Rack and Fabric wiring whose switches,
// servers and clients are timing subclasses: each subclass times the
// outermost HandleBurst/HandlePacket call of its node into a shared
// per-module NodeClock. The copies must reproduce the library topologies'
// simulated results exactly; main.cc checks that on every traced run.

#ifndef NETCACHE_PERFBENCH_TIMED_TOPOLOGY_H_
#define NETCACHE_PERFBENCH_TIMED_TOPOLOGY_H_

#include <memory>

#include "perfbench/workloads.h"

namespace netcache::perfbench {

// `clocks` must outlive the returned topology.
std::unique_ptr<Topology> MakeTimedTopology(const WorkloadSpec& spec, LayerClocks* clocks);

}  // namespace netcache::perfbench

#endif  // NETCACHE_PERFBENCH_TIMED_TOPOLOGY_H_

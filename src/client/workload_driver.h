// Open-loop workload driver: sends queries from a WorkloadGenerator at a
// configurable rate, addresses each to the key's owning server, records
// goodput over time, and optionally adapts its rate to the observed loss —
// the §7.4 mechanism: "if the client detects packet loss is above a high
// threshold (e.g. 5%), it decreases its rates; if the packet loss is less
// than a low threshold (e.g. 1%), client increases its rates."

#ifndef NETCACHE_CLIENT_WORKLOAD_DRIVER_H_
#define NETCACHE_CLIENT_WORKLOAD_DRIVER_H_

#include <cstdint>
#include <functional>

#include "client/client.h"
#include "common/time_units.h"
#include "common/timeseries.h"
#include "net/simulator.h"
#include "workload/generator.h"

namespace netcache {

struct DriverConfig {
  double rate_qps = 1e6;  // initial (and fixed, when !adaptive) send rate
  bool adaptive = false;
  double loss_high = 0.05;  // shrink rate above this loss
  double loss_low = 0.01;   // grow rate below this loss
  double rate_step = 0.08;  // multiplicative adjustment per interval
  SimDuration adjust_interval = 50 * kMillisecond;
  double min_rate_qps = 1e4;
  double max_rate_qps = 1e12;
  // Goodput time-series bin width.
  SimDuration bin_width = 100 * kMillisecond;
};

class WorkloadDriver {
 public:
  // Queries come from a source callback, so any producer works — the
  // synthetic generator, a TraceReplayer, or a test stub.
  using QuerySource = std::function<Query()>;

  WorkloadDriver(Simulator* sim, Client* client, QuerySource source,
                 std::function<IpAddress(const Key&)> owner_of, const DriverConfig& config);

  // Convenience: drive from a WorkloadGenerator (the common case).
  WorkloadDriver(Simulator* sim, Client* client, WorkloadGenerator* generator,
                 std::function<IpAddress(const Key&)> owner_of, const DriverConfig& config);

  void Start();
  void Stop();

  double current_rate() const { return rate_qps_; }
  uint64_t sent() const { return sent_; }
  uint64_t completed() const { return completed_; }
  uint64_t failed() const { return failed_; }

  // Completed queries per bin (sum; divide by bin seconds for rate).
  const TimeSeries& goodput() const { return goodput_; }
  // Send-rate setting sampled at each adjustment interval.
  const TimeSeries& rate_trace() const { return rate_trace_; }

 private:
  void SendOne();
  void ScheduleNext();
  void AdjustRate();

  Simulator* sim_;
  Client* client_;
  QuerySource source_;
  std::function<IpAddress(const Key&)> owner_of_;
  DriverConfig config_;

  bool running_ = false;  // Start/Stop happen outside events
  double rate_qps_;
  uint64_t sent_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t window_sent_ = 0;
  uint64_t window_failed_ = 0;
  TimeSeries goodput_;
  TimeSeries rate_trace_;
};

}  // namespace netcache

#endif  // NETCACHE_CLIENT_WORKLOAD_DRIVER_H_

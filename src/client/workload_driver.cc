#include "client/workload_driver.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace netcache {

WorkloadDriver::WorkloadDriver(Simulator* sim, Client* client, QuerySource source,
                               std::function<IpAddress(const Key&)> owner_of,
                               const DriverConfig& config)
    : sim_(sim),
      client_(client),
      source_(std::move(source)),
      owner_of_(std::move(owner_of)),
      config_(config),
      rate_qps_(config.rate_qps),
      goodput_(config.bin_width),
      rate_trace_(config.adjust_interval) {
  NC_CHECK(sim != nullptr && client != nullptr && source_ != nullptr);
  NC_CHECK(config.rate_qps > 0.0);
}

WorkloadDriver::WorkloadDriver(Simulator* sim, Client* client, WorkloadGenerator* generator,
                               std::function<IpAddress(const Key&)> owner_of,
                               const DriverConfig& config)
    : WorkloadDriver(
          sim, client,
          [generator] { return generator->Next(); },  // generator outlives the driver
          std::move(owner_of), config) {
  NC_CHECK(generator != nullptr);
}

void WorkloadDriver::Start() {
  NC_CHECK(!running_);
  running_ = true;
  ScheduleNext();
  if (config_.adaptive) {
    sim_->Schedule(config_.adjust_interval, [this] { AdjustRate(); });
  }
}

void WorkloadDriver::Stop() { running_ = false; }

void WorkloadDriver::ScheduleNext() {
  if (!running_) {
    return;
  }
  SimDuration gap = static_cast<SimDuration>(1e9 / rate_qps_);
  if (gap == 0) {
    gap = 1;
  }
  sim_->Schedule(gap, [this] {
    if (!running_) {
      return;
    }
    SendOne();
    ScheduleNext();
  });
}

void WorkloadDriver::SendOne() {
  Query q = source_();
  IpAddress owner = owner_of_(q.key);
  ++sent_;
  ++window_sent_;
  auto cb = [this](const Status& status, const Value& /*value*/) {
    if (status.ok() || status.code() == StatusCode::kNotFound) {
      ++completed_;
      goodput_.Add(sim_->Now(), 1.0);
    } else {
      ++failed_;
      ++window_failed_;
    }
  };
  switch (q.op) {
    case OpCode::kPut:
      client_->Put(owner, q.key, q.value, cb);
      break;
    case OpCode::kDelete:
      client_->Delete(owner, q.key, cb);
      break;
    default:
      client_->Get(owner, q.key, cb);
      break;
  }
}

void WorkloadDriver::AdjustRate() {
  if (!running_) {
    return;
  }
  // Loss over the last window. Note the paper's caveat: the client "may
  // under-react or over-react" — this is an estimator, not a controller with
  // guarantees, and the Fig 11 wiggles come from exactly this.
  double loss = window_sent_ == 0
                    ? 0.0
                    : static_cast<double>(window_failed_) / static_cast<double>(window_sent_);
  if (loss > config_.loss_high) {
    rate_qps_ *= (1.0 - config_.rate_step);
  } else if (loss < config_.loss_low) {
    rate_qps_ *= (1.0 + config_.rate_step);
  }
  rate_qps_ = std::clamp(rate_qps_, config_.min_rate_qps, config_.max_rate_qps);
  rate_trace_.Add(sim_->Now(), rate_qps_);
  window_sent_ = 0;
  window_failed_ = 0;
  sim_->Schedule(config_.adjust_interval, [this] { AdjustRate(); });
}

}  // namespace netcache

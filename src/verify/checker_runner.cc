#include "verify/checker_runner.h"

#include <utility>

#include "common/logging.h"

namespace netcache {

CheckerRunner::CheckerRunner(Simulator* sim) : sim_(sim) {}

void CheckerRunner::AddChecker(std::unique_ptr<InvariantChecker> checker) {
  NC_CHECK(checker != nullptr);
  auto entry = std::make_unique<Entry>();
  entry->checker = std::move(checker);
  entries_.push_back(std::move(entry));
}

size_t CheckerRunner::RunOnce() {
  ++runs_;
  last_violations_.clear();
  for (auto& entry : entries_) {
    std::vector<Violation> found;
    entry->checker->Check(&found);
    ++checks_run_;
    for (Violation& v : found) {
      v.checker = entry->checker->name();
      ++entry->violations;
      ++total_violations_;
      NC_LOG(ERROR) << "[invariant:" << v.checker << "] " << v.summary
                    << (v.detail.empty() ? "" : "\n") << v.detail;
      last_violations_.push_back(std::move(v));
    }
  }
  return last_violations_.size();
}

void CheckerRunner::Start(SimDuration interval) {
  NC_CHECK(sim_ != nullptr) << "CheckerRunner::Start needs a simulator";
  NC_CHECK(interval > 0);
  running_ = true;
  ++generation_;
  ScheduleNext(interval);
}

void CheckerRunner::Stop() {
  running_ = false;
  ++generation_;
}

void CheckerRunner::ScheduleNext(SimDuration interval) {
  uint64_t gen = generation_;
  sim_->Schedule(interval, [this, gen, interval] {
    if (!running_ || gen != generation_) {
      return;
    }
    RunOnce();
    ScheduleNext(interval);
  });
}

uint64_t CheckerRunner::violations_for(const std::string& checker_name) const {
  for (const auto& entry : entries_) {
    if (entry->checker->name() == checker_name) {
      return entry->violations;
    }
  }
  return 0;
}

void CheckerRunner::RegisterMetrics(MetricsRegistry& registry, const std::string& prefix,
                                    MetricsRegistry::Labels labels) const {
  registry.AddCounter(prefix + ".runs", &runs_, labels);
  registry.AddCounter(prefix + ".checks", &checks_run_, labels);
  registry.AddCounter(prefix + ".violations", &total_violations_, labels);
  for (const auto& entry : entries_) {
    registry.AddCounter(prefix + "." + entry->checker->name() + ".violations",
                        &entry->violations, labels);
  }
}

}  // namespace netcache

#include "engine/phase_logger.hpp"

#include <utility>

#include "common/check.hpp"

namespace g10::engine {

using trace::PhaseEventRecord;

void PhaseLogger::begin(const trace::PathRef& path, TimeNs time,
                        trace::MachineId machine) {
  const auto [it, inserted] = open_.emplace(path, time);
  G10_CHECK_MSG(inserted, "phase already open: " << path.to_string());
  phase_events_.push_back(
      PhaseEventRecord{PhaseEventRecord::Kind::Begin, path, time, machine});
}

void PhaseLogger::end(const trace::PathRef& path, TimeNs time,
                      trace::MachineId machine) {
  const auto it = open_.find(path);
  G10_CHECK_MSG(it != open_.end(),
                "ending phase that is not open: " << path.to_string());
  G10_CHECK_MSG(it->second <= time,
                "phase " << path.to_string() << " ends before it begins");
  open_.erase(it);
  phase_events_.push_back(
      PhaseEventRecord{PhaseEventRecord::Kind::End, path, time, machine});
}

void PhaseLogger::block(trace::Symbol resource, const trace::PathRef& path,
                        TimeNs begin, TimeNs end, trace::MachineId machine) {
  G10_CHECK(end >= begin);
  if (end == begin) return;
  blocking_events_.push_back(
      trace::BlockingEventRecord{resource, path, begin, end, machine});
}

bool PhaseLogger::abandon(const trace::PathRef& path) {
  return open_.erase(path) > 0;
}

bool PhaseLogger::is_open(const trace::PathRef& path) const {
  return open_.contains(path);
}

std::optional<TimeNs> PhaseLogger::open_begin(
    const trace::PathRef& path) const {
  const auto it = open_.find(path);
  if (it == open_.end()) return std::nullopt;
  return it->second;
}

std::vector<trace::PhaseEventRecord> PhaseLogger::take_phase_events() {
  G10_CHECK_MSG(open_.empty(), "phases still open at end of run");
  return std::exchange(phase_events_, {});
}

std::vector<trace::BlockingEventRecord> PhaseLogger::take_blocking_events() {
  return std::exchange(blocking_events_, {});
}

}  // namespace g10::engine

// Shared helpers for hand-building traces in the grade10 tests.
#pragma once

#include <string>
#include <vector>

#include "trace/records.hpp"

namespace g10::core::testing {

inline trace::PathRef make_path(const std::string& text) {
  auto parsed = trace::parse_phase_path(text);
  if (!parsed) throw std::runtime_error("bad test path: " + text);
  return *parsed;
}

/// Appends a begin/end pair for one phase instance.
inline void add_phase(std::vector<trace::PhaseEventRecord>& events,
                      const std::string& path, TimeNs begin, TimeNs end,
                      trace::MachineId machine = trace::kGlobalMachine) {
  events.push_back({trace::PhaseEventRecord::Kind::Begin, make_path(path),
                    begin, machine});
  events.push_back(
      {trace::PhaseEventRecord::Kind::End, make_path(path), end, machine});
}

inline trace::BlockingEventRecord make_block(
    const std::string& resource, const std::string& path, TimeNs begin,
    TimeNs end, trace::MachineId machine = trace::kGlobalMachine) {
  return {trace::SymbolTable::global().intern(resource), make_path(path),
          begin, end, machine};
}

inline trace::MonitoringSampleRecord make_sample(
    const std::string& resource, trace::MachineId machine, TimeNs time,
    double value) {
  return {trace::SymbolTable::global().intern(resource), machine, time,
          value};
}

}  // namespace g10::core::testing

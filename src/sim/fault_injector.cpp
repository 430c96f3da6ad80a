#include "sim/fault_injector.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/strings.hpp"

namespace g10::sim {
namespace {

// Parses "40%" / "2s" / "150ms" / bare "2" (seconds) into a FaultTime.
std::optional<FaultTime> parse_fault_time(std::string_view text) {
  text = trim(text);
  if (text.empty()) return std::nullopt;
  FaultTime out;
  double scale = 1.0;
  if (text.back() == '%') {
    out.percent = true;
    scale = 0.01;
    text.remove_suffix(1);
  } else if (text.size() >= 2 && text.substr(text.size() - 2) == "ms") {
    scale = 1e-3;
    text.remove_suffix(2);
  } else if (text.back() == 's') {
    text.remove_suffix(1);
  }
  const auto value = parse_double(text);
  if (!value || *value < 0.0) return std::nullopt;
  out.value = *value * scale;
  return out;
}

std::string fault_time_to_string(const FaultTime& t) {
  if (t.percent) return format_fixed(t.value * 100.0, 6 /*trimmed below*/);
  return format_fixed(t.value, 6);
}

// format_fixed keeps trailing zeros; strip them for a tidy canonical form.
std::string trim_number(std::string s) {
  if (s.find('.') == std::string::npos) return s;
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

std::string render_time(const FaultTime& t) {
  return trim_number(fault_time_to_string(t)) + (t.percent ? "%" : "s");
}

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

// Parses one machine index ("2" or "*" when allow_all is set).
bool parse_machine(std::string_view machine_text, bool allow_all, int* out,
                   std::string_view event_text, std::string* error) {
  if (machine_text == "*") {
    if (!allow_all) {
      return fail(error, "'w*' is not a valid target here: '" +
                             std::string(event_text) + "'");
    }
    *out = FaultEvent::kAllMachines;
    return true;
  }
  const auto machine = parse_int(machine_text);
  if (!machine || *machine < 0) {
    return fail(error, "bad machine index '" + std::string(machine_text) +
                           "' in fault event '" + std::string(event_text) +
                           "'");
  }
  *out = static_cast<int>(*machine);
  return true;
}

// Parses one event ("crash:w2@40%", "part:w0-w2@30%+20%"). Returns false
// with a diagnostic on malformed input.
bool parse_event(std::string_view text, FaultEvent* out, std::string* error) {
  const auto parts = split(text, ':');
  if (parts.size() < 2) {
    return fail(error, "fault event '" + std::string(text) +
                           "': expected <kind>:w<machine>@<time>...");
  }
  const std::string_view kind_name = trim(parts[0]);
  if (kind_name == "crash") {
    out->kind = FaultKind::kCrash;
  } else if (kind_name == "slow") {
    out->kind = FaultKind::kSlowdown;
  } else if (kind_name == "nic") {
    out->kind = FaultKind::kNicDegrade;
  } else if (kind_name == "drop") {
    out->kind = FaultKind::kSampleDrop;
  } else if (kind_name == "part") {
    out->kind = FaultKind::kPartition;
  } else {
    return fail(error, "unknown fault kind '" + std::string(kind_name) +
                           "' (expected crash|slow|nic|drop|part)");
  }

  // Target + schedule: "w<machine>@<time>[+<duration>]"; partitions name a
  // machine pair "wA-wB".
  std::string_view target = trim(parts[1]);
  const auto at_pos = target.find('@');
  if (target.empty() || target.front() != 'w' ||
      at_pos == std::string_view::npos) {
    return fail(error, "fault event '" + std::string(text) +
                           "': expected target 'w<machine>@<time>'");
  }
  const std::string_view machine_text = target.substr(1, at_pos - 1);
  if (out->kind == FaultKind::kPartition) {
    const auto dash_pos = machine_text.find("-w");
    if (dash_pos == std::string_view::npos) {
      return fail(error, "partition faults need a machine pair 'wA-wB': '" +
                             std::string(text) + "'");
    }
    // The first endpoint must be concrete; the peer may be '*' (isolate the
    // first endpoint from every other machine).
    if (!parse_machine(trim(machine_text.substr(0, dash_pos)), false,
                       &out->machine, text, error)) {
      return false;
    }
    if (!parse_machine(trim(machine_text.substr(dash_pos + 2)), true,
                       &out->machine_b, text, error)) {
      return false;
    }
    if (out->machine_b == out->machine) {
      return fail(error, "partition endpoints must differ: '" +
                             std::string(text) + "'");
    }
  } else if (machine_text == "*") {
    if (out->kind == FaultKind::kCrash) {
      return fail(error, "crash faults need a specific machine, not 'w*'");
    }
    out->machine = FaultEvent::kAllMachines;
  } else {
    if (!parse_machine(machine_text, false, &out->machine, text, error)) {
      return false;
    }
  }
  std::string_view schedule = target.substr(at_pos + 1);
  const auto plus_pos = schedule.find('+');
  std::string_view at_text = schedule.substr(0, plus_pos);
  const auto at = parse_fault_time(at_text);
  if (!at) {
    return fail(error, "bad fault time '" + std::string(at_text) +
                           "' in fault event '" + std::string(text) + "'");
  }
  out->at = *at;
  if (plus_pos != std::string_view::npos) {
    const std::string_view dur_text = schedule.substr(plus_pos + 1);
    const auto duration = parse_fault_time(dur_text);
    if (!duration || duration->value <= 0.0) {
      return fail(error, "bad fault duration '" + std::string(dur_text) +
                             "' in fault event '" + std::string(text) + "'");
    }
    out->duration = *duration;
  } else {
    out->open_ended =
        out->kind != FaultKind::kCrash && out->kind != FaultKind::kPartition;
  }
  if (out->kind == FaultKind::kCrash && plus_pos != std::string_view::npos) {
    return fail(error, "crash faults take no duration: '" + std::string(text) +
                           "'");
  }
  if (out->kind == FaultKind::kPartition &&
      plus_pos == std::string_view::npos) {
    return fail(error,
                "partition faults need an explicit '+<duration>' (a machine "
                "unreachable forever is a crash): '" +
                    std::string(text) + "'");
  }

  // Optional parameters: "x<factor>" (slow, nic) and "loss=<p>" (nic).
  bool saw_factor = false;
  bool saw_loss = false;
  for (std::size_t i = 2; i < parts.size(); ++i) {
    const std::string_view param = trim(parts[i]);
    if (!param.empty() && param.front() == 'x') {
      if (out->kind != FaultKind::kSlowdown &&
          out->kind != FaultKind::kNicDegrade) {
        return fail(error, "'x<factor>' applies only to slow|nic faults: '" +
                               std::string(text) + "'");
      }
      if (saw_factor) {
        return fail(error, "duplicate factor parameter '" +
                               std::string(param) + "' in fault event '" +
                               std::string(text) + "'");
      }
      const auto factor = parse_double(param.substr(1));
      if (!factor || *factor <= 0.0) {
        return fail(error, "bad factor '" + std::string(param) +
                               "' in fault event '" + std::string(text) + "'");
      }
      out->factor = *factor;
      saw_factor = true;
    } else if (starts_with(param, "loss=")) {
      if (out->kind != FaultKind::kNicDegrade) {
        return fail(error, "'loss=' applies only to nic faults: '" +
                               std::string(text) + "'");
      }
      if (saw_loss) {
        return fail(error, "duplicate loss parameter '" + std::string(param) +
                               "' in fault event '" + std::string(text) +
                               "'");
      }
      const auto loss = parse_double(param.substr(5));
      if (!loss || *loss < 0.0 || *loss >= 1.0) {
        return fail(error, "bad loss probability '" + std::string(param) +
                               "' (need [0,1)) in '" + std::string(text) +
                               "'");
      }
      out->loss = *loss;
      saw_loss = true;
    } else {
      return fail(error, "unknown fault parameter '" + std::string(param) +
                             "' in fault event '" + std::string(text) + "'");
    }
  }
  if (out->kind == FaultKind::kSlowdown && !saw_factor) {
    return fail(error,
                "slow faults need an 'x<factor>' parameter: '" +
                    std::string(text) + "'");
  }
  return true;
}

// True when partition event e cuts the (a, b) link. `part:wA-w*` isolates A
// from everyone.
bool separates(const FaultEvent& e, int a, int b) {
  if (a == b) return false;
  if (e.machine_b == FaultEvent::kAllMachines) {
    return a == e.machine || b == e.machine;
  }
  return (a == e.machine && b == e.machine_b) ||
         (a == e.machine_b && b == e.machine);
}

}  // namespace

std::string_view fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kSlowdown:
      return "slow";
    case FaultKind::kNicDegrade:
      return "nic";
    case FaultKind::kSampleDrop:
      return "drop";
    case FaultKind::kPartition:
      return "part";
  }
  return "?";
}

bool FaultSpec::has_kind(FaultKind kind) const {
  return std::any_of(events.begin(), events.end(),
                     [kind](const FaultEvent& e) { return e.kind == kind; });
}

std::optional<FaultSpec> FaultSpec::parse(std::string_view text,
                                          std::string* error) {
  FaultSpec spec;
  // Accept ',' and ';' as event separators.
  std::string normalized(text);
  std::replace(normalized.begin(), normalized.end(), ';', ',');
  for (const std::string_view part : split(normalized, ',')) {
    if (trim(part).empty()) continue;
    FaultEvent event;
    if (!parse_event(trim(part), &event, error)) return std::nullopt;
    spec.events.push_back(event);
  }
  return spec;
}

std::string FaultSpec::to_string() const {
  std::vector<std::string> parts;
  parts.reserve(events.size());
  for (const FaultEvent& e : events) {
    std::string s(fault_kind_name(e.kind));
    s += ":w";
    s += e.machine == FaultEvent::kAllMachines ? "*"
                                               : std::to_string(e.machine);
    if (e.kind == FaultKind::kPartition) {
      s += "-w";
      s += e.machine_b == FaultEvent::kAllMachines
               ? "*"
               : std::to_string(e.machine_b);
    }
    s += '@';
    s += render_time(e.at);
    if (e.kind != FaultKind::kCrash && !e.open_ended) {
      s += '+';
      s += render_time(e.duration);
    }
    if (e.kind == FaultKind::kSlowdown || e.kind == FaultKind::kNicDegrade) {
      s += ":x";
      s += trim_number(format_fixed(e.factor, 6));
    }
    if (e.loss > 0.0) {
      s += ":loss=";
      s += trim_number(format_fixed(e.loss, 6));
    }
    parts.push_back(std::move(s));
  }
  return join(parts, ",");
}

FaultSpec FaultSpec::sample(Rng& rng, const FaultSampleRanges& ranges) {
  G10_CHECK_MSG(ranges.machine_count >= 1, "need at least one machine");
  G10_CHECK_MSG(ranges.min_events >= 0 &&
                    ranges.max_events >= ranges.min_events,
                "bad event-count range");
  G10_CHECK_MSG(ranges.max_at >= 0.0 && ranges.max_at <= 1.0 &&
                    ranges.min_duration > 0.0 &&
                    ranges.max_duration >= ranges.min_duration,
                "bad time ranges");
  G10_CHECK_MSG(ranges.min_factor > 0.0 &&
                    ranges.max_factor >= ranges.min_factor,
                "bad factor range");
  G10_CHECK_MSG(ranges.max_loss >= 0.0 && ranges.max_loss < 1.0,
                "bad loss range");

  std::vector<FaultKind> kinds = ranges.kinds;
  if (kinds.empty()) {
    kinds = {FaultKind::kCrash, FaultKind::kSlowdown, FaultKind::kNicDegrade,
             FaultKind::kSampleDrop, FaultKind::kPartition};
  }
  if (ranges.machine_count < 2) {
    std::erase(kinds, FaultKind::kPartition);
  }
  G10_CHECK_MSG(!kinds.empty(), "no fault kinds to sample from");

  // Values are drawn in basis points / hundredths and rendered as decimal
  // text, then the whole schedule is parsed back through the grammar. The
  // sampled spec therefore IS a parsed spec — its doubles took the exact
  // parse path — so to_string() round-trips to operator== equality instead
  // of drifting by an ulp.
  const auto percent = [&rng](double lo, double hi) {
    // Two-decimal percent in [lo*100, hi*100], e.g. "37.25%".
    const auto lo_bp = static_cast<std::int64_t>(std::ceil(lo * 1e4));
    const auto hi_bp = static_cast<std::int64_t>(std::floor(hi * 1e4));
    const std::int64_t bp = rng.next_int(lo_bp, std::max(lo_bp, hi_bp));
    return trim_number(format_fixed(static_cast<double>(bp) / 100.0, 2)) +
           "%";
  };
  const auto fraction = [&rng](double lo, double hi) {
    // Two-decimal bare fraction in [lo, hi], e.g. "0.42".
    const auto lo_c = static_cast<std::int64_t>(std::ceil(lo * 1e2));
    const auto hi_c = static_cast<std::int64_t>(std::floor(hi * 1e2));
    const std::int64_t c = rng.next_int(lo_c, std::max(lo_c, hi_c));
    return trim_number(format_fixed(static_cast<double>(c) / 100.0, 2));
  };

  const int count = static_cast<int>(
      rng.next_int(ranges.min_events, ranges.max_events));
  std::vector<std::string> events;
  events.reserve(static_cast<std::size_t>(count));
  bool crashed = false;
  for (int i = 0; i < count; ++i) {
    FaultKind kind = kinds[rng.next_below(kinds.size())];
    if (kind == FaultKind::kCrash && crashed) {
      kind = FaultKind::kSlowdown;  // one crash victim per run
    }
    const int machine =
        static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(ranges.machine_count)));
    std::string e(fault_kind_name(kind));
    e += ":w";
    const bool open_ended = kind != FaultKind::kCrash &&
                            kind != FaultKind::kPartition &&
                            rng.next_bool(ranges.open_ended_probability);
    switch (kind) {
      case FaultKind::kCrash:
        crashed = true;
        e += std::to_string(machine);
        e += '@' + percent(0.0, ranges.max_at);
        break;
      case FaultKind::kPartition: {
        int peer = static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(ranges.machine_count - 1)));
        if (peer >= machine) ++peer;  // distinct endpoints
        e += std::to_string(machine);
        e += "-w";
        // Occasionally isolate the endpoint from the whole fleet.
        e += rng.next_bool(0.2) ? "*" : std::to_string(peer);
        e += '@' + percent(0.0, ranges.max_at);
        e += '+' + percent(ranges.min_duration, ranges.max_duration);
        break;
      }
      default: {
        // Window kinds may target every machine at once.
        e += rng.next_bool(0.15) ? "*" : std::to_string(machine);
        e += '@' + percent(0.0, ranges.max_at);
        if (!open_ended) {
          e += '+' + percent(ranges.min_duration, ranges.max_duration);
        }
        if (kind == FaultKind::kSlowdown || kind == FaultKind::kNicDegrade) {
          e += ":x" + fraction(ranges.min_factor, ranges.max_factor);
        }
        if (kind == FaultKind::kNicDegrade && ranges.max_loss > 0.0 &&
            rng.next_bool(0.7)) {
          const std::string loss = fraction(0.01, ranges.max_loss);
          if (loss != "0") e += ":loss=" + loss;
        }
        break;
      }
    }
    events.push_back(std::move(e));
  }

  std::string error;
  const auto spec = FaultSpec::parse(join(events, ","), &error);
  G10_CHECK_MSG(spec.has_value(), "sampled spec failed to parse: " + error);
  spec->validate(ranges.machine_count);
  return *spec;
}

void FaultSpec::validate(int machine_count) const {
  const auto check_machine = [machine_count](int machine) {
    if (machine == FaultEvent::kAllMachines) return;
    G10_CHECK_MSG(machine < machine_count,
                  "fault event targets machine " + std::to_string(machine) +
                      " but the cluster has only " +
                      std::to_string(machine_count) + " machines");
  };
  for (const FaultEvent& e : events) {
    check_machine(e.machine);
    if (e.kind == FaultKind::kPartition) check_machine(e.machine_b);
  }
}

FaultInjector::FaultInjector(FaultSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), rng_(seed) {}

void FaultInjector::resolve(TimeNs nominal_horizon) {
  G10_CHECK_MSG(nominal_horizon > 0, "fault horizon must be positive");
  resolved_events_.clear();
  resolved_events_.reserve(spec_.events.size());
  const auto to_ns = [nominal_horizon](const FaultTime& t) -> TimeNs {
    const double seconds_or_fraction = t.value;
    const double ns = t.percent
                          ? seconds_or_fraction *
                                static_cast<double>(nominal_horizon)
                          : seconds_or_fraction * static_cast<double>(kSecond);
    return static_cast<TimeNs>(std::llround(ns));
  };
  for (const FaultEvent& e : spec_.events) {
    Resolved r;
    r.begin = to_ns(e.at);
    if (e.kind == FaultKind::kCrash) {
      r.end = r.begin;
    } else if (e.open_ended) {
      // Open-ended windows last "to end of run"; 64x the nominal horizon is
      // beyond any simulated clock value the engines produce.
      r.end = nominal_horizon * 64;
    } else {
      r.end = r.begin + to_ns(e.duration);
    }
    resolved_events_.push_back(r);
  }
  resolved_ = true;
}

std::optional<TimeNs> FaultInjector::next_crash_time() const {
  if (spec_.events.empty()) return std::nullopt;
  G10_CHECK_MSG(resolved_, "FaultInjector::resolve() must run first");
  std::optional<TimeNs> best;
  for (std::size_t i = 0; i < spec_.events.size(); ++i) {
    if (spec_.events[i].kind != FaultKind::kCrash) continue;
    if (resolved_events_[i].consumed) continue;
    const TimeNs t = resolved_events_[i].begin;
    if (!best || t < *best) best = t;
  }
  return best;
}

std::optional<int> FaultInjector::take_crash(TimeNs now) {
  if (spec_.events.empty()) return std::nullopt;
  G10_CHECK_MSG(resolved_, "FaultInjector::resolve() must run first");
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < spec_.events.size(); ++i) {
    if (spec_.events[i].kind != FaultKind::kCrash) continue;
    if (resolved_events_[i].consumed) continue;
    if (resolved_events_[i].begin > now) continue;
    if (!best || resolved_events_[i].begin < resolved_events_[*best].begin) {
      best = i;
    }
  }
  if (!best) return std::nullopt;
  resolved_events_[*best].consumed = true;
  return spec_.events[*best].machine;
}

bool FaultInjector::window_active(std::size_t i, int machine, TimeNs t) const {
  const FaultEvent& e = spec_.events[i];
  if (e.machine != FaultEvent::kAllMachines && e.machine != machine) {
    return false;
  }
  const Resolved& r = resolved_events_[i];
  return t >= r.begin && t < r.end;
}

double FaultInjector::speed_factor(int machine, TimeNs t) const {
  if (spec_.events.empty()) return 1.0;
  G10_CHECK_MSG(resolved_, "FaultInjector::resolve() must run first");
  double factor = 1.0;
  for (std::size_t i = 0; i < spec_.events.size(); ++i) {
    if (spec_.events[i].kind != FaultKind::kSlowdown) continue;
    if (window_active(i, machine, t)) factor *= spec_.events[i].factor;
  }
  return factor;
}

double FaultInjector::nic_factor(int machine, TimeNs t) const {
  if (spec_.events.empty()) return 1.0;
  G10_CHECK_MSG(resolved_, "FaultInjector::resolve() must run first");
  double factor = 1.0;
  for (std::size_t i = 0; i < spec_.events.size(); ++i) {
    if (spec_.events[i].kind != FaultKind::kNicDegrade) continue;
    if (window_active(i, machine, t)) factor *= spec_.events[i].factor;
  }
  return factor;
}

bool FaultInjector::send_fails(int machine, TimeNs t) {
  if (spec_.events.empty()) return false;
  G10_CHECK_MSG(resolved_, "FaultInjector::resolve() must run first");
  double pass = 1.0;
  for (std::size_t i = 0; i < spec_.events.size(); ++i) {
    if (spec_.events[i].kind != FaultKind::kNicDegrade) continue;
    if (spec_.events[i].loss <= 0.0) continue;
    if (window_active(i, machine, t)) pass *= 1.0 - spec_.events[i].loss;
  }
  // No active loss window: report success without touching the RNG, so that
  // runs outside the window keep the exact event sequence of a clean run.
  if (pass >= 1.0) return false;
  return rng_.next_bool(1.0 - pass);
}

bool FaultInjector::sample_dropped(int machine, TimeNs t) const {
  if (spec_.events.empty()) return false;
  G10_CHECK_MSG(resolved_, "FaultInjector::resolve() must run first");
  for (std::size_t i = 0; i < spec_.events.size(); ++i) {
    if (spec_.events[i].kind != FaultKind::kSampleDrop) continue;
    if (window_active(i, machine, t)) return true;
  }
  return false;
}

bool FaultInjector::partitioned(int a, int b, TimeNs t) const {
  if (spec_.events.empty()) return false;
  G10_CHECK_MSG(resolved_, "FaultInjector::resolve() must run first");
  for (std::size_t i = 0; i < spec_.events.size(); ++i) {
    const FaultEvent& e = spec_.events[i];
    if (e.kind != FaultKind::kPartition || !separates(e, a, b)) continue;
    const Resolved& r = resolved_events_[i];
    if (t >= r.begin && t < r.end) return true;
  }
  return false;
}

TimeNs FaultInjector::partition_heal_time(int a, int b, TimeNs t) const {
  if (spec_.events.empty()) return t;
  G10_CHECK_MSG(resolved_, "FaultInjector::resolve() must run first");
  // Walk through chained/overlapping windows: each pass extends the heal
  // time to the latest end of a window still covering it.
  TimeNs heal = t;
  bool advanced = true;
  while (advanced) {
    advanced = false;
    for (std::size_t i = 0; i < spec_.events.size(); ++i) {
      const FaultEvent& e = spec_.events[i];
      if (e.kind != FaultKind::kPartition || !separates(e, a, b)) continue;
      const Resolved& r = resolved_events_[i];
      if (heal >= r.begin && heal < r.end) {
        heal = r.end;
        advanced = true;
      }
    }
  }
  return heal;
}

std::vector<std::pair<TimeNs, TimeNs>> FaultInjector::isolation_windows(
    int machine) const {
  if (spec_.events.empty()) return {};
  G10_CHECK_MSG(resolved_, "FaultInjector::resolve() must run first");
  std::vector<std::pair<TimeNs, TimeNs>> windows;
  for (std::size_t i = 0; i < spec_.events.size(); ++i) {
    const FaultEvent& e = spec_.events[i];
    if (e.kind != FaultKind::kPartition) continue;
    if (e.machine != machine || e.machine_b != FaultEvent::kAllMachines) {
      continue;
    }
    windows.emplace_back(resolved_events_[i].begin, resolved_events_[i].end);
  }
  std::sort(windows.begin(), windows.end());
  return windows;
}

std::vector<TimeNs> FaultInjector::nic_change_times() const {
  if (spec_.events.empty()) return {};
  G10_CHECK_MSG(resolved_, "FaultInjector::resolve() must run first");
  std::vector<TimeNs> times;
  for (std::size_t i = 0; i < spec_.events.size(); ++i) {
    if (spec_.events[i].kind != FaultKind::kNicDegrade) continue;
    times.push_back(resolved_events_[i].begin);
    times.push_back(resolved_events_[i].end);
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
}

}  // namespace g10::sim

#include "trace/log_io.hpp"

#include <charconv>
#include <sstream>

#include "common/strings.hpp"

namespace g10::trace {

namespace {

/// Shortest round-trip formatting; the writer hot path allocates no stream.
std::string format_double(double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc{} ? std::string(buf, ptr) : std::string("0");
}

void write_phase_event(std::ostream& os, const PhaseEventRecord& rec) {
  os << "PHASE\t" << (rec.kind == PhaseEventRecord::Kind::Begin ? 'B' : 'E')
     << '\t' << rec.path.to_string() << '\t' << rec.time << '\t' << rec.machine
     << '\n';
}

void write_blocking_event(std::ostream& os, const BlockingEventRecord& rec) {
  os << "BLOCK\t" << SymbolTable::global().name(rec.resource) << '\t'
     << rec.path.to_string() << '\t' << rec.begin << '\t' << rec.end << '\t'
     << rec.machine << '\n';
}

void write_monitoring_sample(std::ostream& os,
                             const MonitoringSampleRecord& rec) {
  os << "SAMPLE\t" << SymbolTable::global().name(rec.resource) << '\t'
     << rec.machine << '\t' << rec.time << '\t' << format_double(rec.value)
     << '\n';
}

void write_log_meta(std::ostream& os, const LogMeta& meta) {
  os << "META\t" << meta.first << '\t' << meta.second << '\n';
}

}  // namespace

void write_log(std::ostream& os,
               const std::vector<PhaseEventRecord>& phase_events,
               const std::vector<BlockingEventRecord>& blocking_events,
               const std::vector<MonitoringSampleRecord>& samples,
               const std::vector<LogMeta>& meta) {
  os << "# grade10 trace log v1\n";
  for (const auto& rec : meta) write_log_meta(os, rec);
  for (const auto& rec : phase_events) write_phase_event(os, rec);
  for (const auto& rec : blocking_events) write_blocking_event(os, rec);
  for (const auto& rec : samples) write_monitoring_sample(os, rec);
}

std::optional<std::string> ParsedLog::meta_value(std::string_view key) const {
  for (const auto& [k, v] : meta) {
    if (k == key) return v;
  }
  return std::nullopt;
}

namespace {

std::optional<std::string> parse_meta_line(
    const std::vector<std::string_view>& fields, ParsedLog& out) {
  if (fields.size() < 3) return "META record needs key and value";
  if (fields[1].empty()) return "empty META key";
  // The value is everything after the second tab (values never contain
  // tabs in practice, but a split-happy reader must not lose data).
  std::string value(fields[2]);
  for (std::size_t i = 3; i < fields.size(); ++i) {
    value += '\t';
    value += fields[i];
  }
  out.meta.emplace_back(std::string(fields[1]), std::move(value));
  return std::nullopt;
}

std::optional<std::string> parse_phase_line(
    const std::vector<std::string_view>& fields, ParsedLog& out) {
  if (fields.size() != 5) return "PHASE record needs 5 fields";
  PhaseEventRecord rec;
  if (fields[1] == "B") {
    rec.kind = PhaseEventRecord::Kind::Begin;
  } else if (fields[1] == "E") {
    rec.kind = PhaseEventRecord::Kind::End;
  } else {
    return "PHASE kind must be B or E";
  }
  auto path = parse_phase_path(fields[2]);
  if (!path) return "malformed phase path";
  rec.path = std::move(*path);
  const auto time = parse_int(fields[3]);
  if (!time || *time < 0) return "malformed PHASE time";
  rec.time = *time;
  const auto machine = parse_int(fields[4]);
  if (!machine) return "malformed PHASE machine";
  rec.machine = static_cast<MachineId>(*machine);
  out.phase_events.push_back(std::move(rec));
  return std::nullopt;
}

std::optional<std::string> parse_block_line(
    const std::vector<std::string_view>& fields, ParsedLog& out) {
  if (fields.size() != 6) return "BLOCK record needs 6 fields";
  if (fields[1].empty()) return "empty BLOCK resource";
  BlockingEventRecord rec;
  rec.resource = SymbolTable::global().intern(fields[1]);
  auto path = parse_phase_path(fields[2]);
  if (!path) return "malformed phase path";
  rec.path = std::move(*path);
  const auto begin = parse_int(fields[3]);
  const auto end = parse_int(fields[4]);
  if (!begin || !end || *begin < 0 || *end < *begin) {
    return "malformed BLOCK interval";
  }
  rec.begin = *begin;
  rec.end = *end;
  const auto machine = parse_int(fields[5]);
  if (!machine) return "malformed BLOCK machine";
  rec.machine = static_cast<MachineId>(*machine);
  out.blocking_events.push_back(std::move(rec));
  return std::nullopt;
}

std::optional<std::string> parse_sample_line(
    const std::vector<std::string_view>& fields, ParsedLog& out) {
  if (fields.size() != 5) return "SAMPLE record needs 5 fields";
  if (fields[1].empty()) return "empty SAMPLE resource";
  MonitoringSampleRecord rec;
  rec.resource = SymbolTable::global().intern(fields[1]);
  const auto machine = parse_int(fields[2]);
  if (!machine) return "malformed SAMPLE machine";
  rec.machine = static_cast<MachineId>(*machine);
  const auto time = parse_int(fields[3]);
  if (!time || *time < 0) return "malformed SAMPLE time";
  rec.time = *time;
  const auto value = parse_double(fields[4]);
  if (!value) return "malformed SAMPLE value";
  rec.value = *value;
  out.samples.push_back(std::move(rec));
  return std::nullopt;
}

}  // namespace

ParseResult parse_log_text(std::string_view text,
                           const ParseOptions& options) {
  ParseResult result;
  std::vector<std::string_view> fields;  // scratch, reused per line
  std::size_t pos = 0;
  std::size_t line_number = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line =
        eol == std::string_view::npos ? text.substr(pos)
                                      : text.substr(pos, eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    ++line_number;
    const std::string_view trimmed = trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    split_into(trimmed, '\t', fields);
    std::optional<std::string> error;
    if (fields[0] == "PHASE") {
      error = parse_phase_line(fields, result.log);
    } else if (fields[0] == "META") {
      error = parse_meta_line(fields, result.log);
    } else if (fields[0] == "BLOCK") {
      error = parse_block_line(fields, result.log);
    } else if (fields[0] == "SAMPLE") {
      error = parse_sample_line(fields, result.log);
    } else {
      error = "unknown record type: " + std::string(fields[0]);
    }
    if (error) {
      ++result.error_count;
      ParseError diagnostic{line_number, *error, std::string(trimmed)};
      if (!result.error) result.error = diagnostic;
      if (result.errors.size() < options.max_errors) {
        result.errors.push_back(std::move(diagnostic));
      }
      if (!options.recover) break;
    }
  }
  return result;
}

ParseResult parse_log(std::istream& is) { return parse_log(is, {}); }

ParseResult parse_log(std::istream& is, const ParseOptions& options) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string text = buffer.str();
  return parse_log_text(text, options);
}

}  // namespace g10::trace

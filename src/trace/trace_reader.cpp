#include "trace/trace_reader.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <utility>

#include "trace/g10t_io.hpp"
#include "trace/mapped_file.hpp"

namespace g10::trace {

SniffResult sniff_trace_format(const std::string& path) {
  SniffResult out;
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    out.error = "cannot open " + path;
    return out;
  }
  char prefix[sizeof(kG10tMagic)] = {};
  file.read(prefix, sizeof(prefix));
  const auto got = static_cast<std::size_t>(file.gcount());
  out.format = looks_like_g10t(std::string_view(prefix, got))
                   ? TraceFormat::kBinary
                   : TraceFormat::kText;
  return out;
}

namespace {

/// A TraceFilter with its type names interned once, so that path checks
/// compare symbols.
class RecordFilter {
 public:
  explicit RecordFilter(const TraceFilter& filter) : filter_(filter) {
    SymbolTable& table = SymbolTable::global();
    for (const std::string& type : filter.phase_types) {
      phase_types_.push_back(table.intern(type));
    }
    for (const std::string& type : filter.ancestor_types) {
      ancestor_types_.push_back(table.intern(type));
    }
  }

  bool empty() const { return filter_.empty(); }

  bool matches(const PhaseEventRecord& rec) const {
    return rec.time >= filter_.time_min && rec.time <= filter_.time_max &&
           matches_machine(rec.machine) && matches_path(rec.path);
  }

  bool matches(const BlockingEventRecord& rec) const {
    return rec.end >= filter_.time_min && rec.begin <= filter_.time_max &&
           matches_machine(rec.machine) && matches_path(rec.path);
  }

  bool matches(const MonitoringSampleRecord& rec) const {
    return rec.time >= filter_.time_min && rec.time <= filter_.time_max &&
           matches_machine(rec.machine);
  }

 private:
  static bool contains(const std::vector<Symbol>& types, Symbol type) {
    return std::find(types.begin(), types.end(), type) != types.end();
  }

  bool matches_machine(MachineId machine) const {
    const std::vector<MachineId>& machines = filter_.machines;
    if (machines.empty() || machine == kGlobalMachine) return true;
    return std::find(machines.begin(), machines.end(), machine) !=
           machines.end();
  }

  bool matches_path(const PathRef& path) const {
    if (phase_types_.empty()) return true;
    for (const PathEntry& entry : path) {
      if (contains(phase_types_, entry.type)) return true;
    }
    // The enclosing chain: only the innermost element may be an ancestor
    // type, otherwise sibling subtrees under a shared ancestor would leak
    // in.
    return !path.empty() && contains(ancestor_types_, path.leaf().type);
  }

  const TraceFilter& filter_;
  std::vector<Symbol> phase_types_;
  std::vector<Symbol> ancestor_types_;
};

void filter_log(const RecordFilter& filter, ParsedLog& log) {
  if (filter.empty()) return;
  std::erase_if(log.phase_events, [&](const PhaseEventRecord& rec) {
    return !filter.matches(rec);
  });
  std::erase_if(log.blocking_events, [&](const BlockingEventRecord& rec) {
    return !filter.matches(rec);
  });
  std::erase_if(log.samples, [&](const MonitoringSampleRecord& rec) {
    return !filter.matches(rec);
  });
}

ParseResult read_text(const MappedFile& file, const TraceReadOptions& options,
                      const RecordFilter& filter) {
  ParseOptions parse_options;
  parse_options.recover = options.recover;
  parse_options.max_errors = options.max_errors;
  ParseResult result = parse_log_text(file.bytes(), parse_options);
  filter_log(filter, result.log);
  return result;
}

/// Does the filter admit any record of this index entry? Conservative: a
/// true may still yield zero records, a false never loses one.
bool block_matches(const TraceFilter& filter,
                   const std::vector<std::uint64_t>& filter_blooms,
                   const IndexEntry& entry) {
  if (entry.record_count == 0) return false;
  if (entry.time_max < filter.time_min || entry.time_min > filter.time_max) {
    return false;
  }
  if (!filter.machines.empty()) {
    bool any = entry.machine_min <= kGlobalMachine &&
               kGlobalMachine <= entry.machine_max;
    for (const MachineId machine : filter.machines) {
      if (any) break;
      any = entry.machine_min <= machine && machine <= entry.machine_max;
    }
    if (!any) return false;
  }
  if (!filter_blooms.empty() && entry.kind != BlockKind::kSample) {
    bool any = false;
    for (const std::uint64_t bit : filter_blooms) {
      if ((entry.name_bloom & bit) != 0) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

struct DecodeOutcome {
  DecodedBlock block;
  std::string error;  ///< empty = success
};

DecodeOutcome decode_one(const MappedFile& file,
                         const G10tStructure& structure,
                         std::size_t ordinal) {
  const IndexEntry& entry = structure.index[ordinal];
  DecodeOutcome outcome;
  const std::string_view payload =
      file.bytes().substr(entry.offset, entry.encoded_size);
  try {
    if (auto error =
            decode_block(payload, entry, structure.symbols, outcome.block)) {
      outcome.error = "block " + std::to_string(ordinal) + ": " + *error;
    }
  } catch (const std::exception& e) {
    outcome.error =
        "block " + std::to_string(ordinal) + ": decode failed: " + e.what();
  }
  return outcome;
}

template <typename Record>
void append(const RecordFilter& filter, std::vector<Record>& from,
            std::vector<Record>& to) {
  if (filter.empty()) {
    to.insert(to.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
    return;
  }
  for (Record& rec : from) {
    if (filter.matches(rec)) to.push_back(std::move(rec));
  }
}

ParseResult read_binary(const MappedFile& file, const G10tStructure& structure,
                        const TraceReadOptions& options,
                        const TraceFilter& filter) {
  const RecordFilter record_filter(filter);
  ParseResult result;
  result.log.meta = structure.meta;

  // Seek: reject blocks via the index alone.
  std::vector<std::uint64_t> filter_blooms;
  if (!filter.phase_types.empty()) {
    filter_blooms.reserve(filter.phase_types.size() +
                          filter.ancestor_types.size());
    for (const std::string& type : filter.phase_types) {
      filter_blooms.push_back(name_bloom_bit(type));
    }
    for (const std::string& type : filter.ancestor_types) {
      filter_blooms.push_back(name_bloom_bit(type));
    }
  }
  std::vector<std::size_t> selected;
  std::size_t phase_records = 0;
  std::size_t blocking_records = 0;
  std::size_t sample_records = 0;
  for (std::size_t i = 0; i < structure.index.size(); ++i) {
    const IndexEntry& entry = structure.index[i];
    if (!block_matches(filter, filter_blooms, entry)) continue;
    selected.push_back(i);
    // Every record costs at least one payload byte (the decoder rejects a
    // block claiming more), so a corrupt index cannot size the reservation
    // beyond the file.
    const auto records = static_cast<std::size_t>(
        std::min(entry.record_count, entry.encoded_size));
    switch (entry.kind) {
      case BlockKind::kPhase: phase_records += records; break;
      case BlockKind::kBlocking: blocking_records += records; break;
      case BlockKind::kSample: sample_records += records; break;
    }
  }
  result.log.phase_events.reserve(std::min(phase_records, file.size()));
  result.log.blocking_events.reserve(std::min(blocking_records, file.size()));
  result.log.samples.reserve(std::min(sample_records, file.size()));

  // Decode the admitted blocks inline, in index order.
  for (const std::size_t ordinal : selected) {
    DecodeOutcome outcome = decode_one(file, structure, ordinal);
    if (!outcome.error.empty()) {
      // Corrupt block: 1-based block ordinal in the "line" slot so strict
      // and lenient consumers treat it like a damaged line, while
      // file-level failures keep line 0.
      ++result.error_count;
      ParseError diagnostic{ordinal + 1, outcome.error, ""};
      if (!result.error) result.error = diagnostic;
      if (result.errors.size() < options.max_errors) {
        result.errors.push_back(std::move(diagnostic));
      }
      if (!options.recover) return result;
      continue;
    }

    DecodedBlock& block = outcome.block;
    append(record_filter, block.phase_events, result.log.phase_events);
    append(record_filter, block.blocking_events, result.log.blocking_events);
    append(record_filter, block.samples, result.log.samples);
  }
  return result;
}

ParseResult file_error(std::string message, const TraceReadOptions& options) {
  ParseResult result;
  ParseError error{0, std::move(message), ""};
  result.error = error;
  result.error_count = 1;
  if (options.max_errors > 0) result.errors.push_back(std::move(error));
  return result;
}

}  // namespace

ParseResult read_trace_file(const std::string& path,
                            const TraceReadOptions& options,
                            const TraceFilter& filter) {
  MappedFile file;
  if (auto error =
          MappedFile::open(path, MappedFile::Options{options.use_mmap},
                           file)) {
    return file_error(std::move(*error), options);
  }

  TraceFormat format = options.format;
  if (format == TraceFormat::kAuto) {
    format = looks_like_g10t(file.bytes()) ? TraceFormat::kBinary
                                           : TraceFormat::kText;
  }
  if (format == TraceFormat::kText) {
    return read_text(file, options, RecordFilter(filter));
  }

  G10tStructureParse structure = parse_g10t_structure(file.bytes());
  if (!structure.ok()) {
    return file_error(path + ": " + *structure.error, options);
  }
  return read_binary(file, structure.structure, options, filter);
}

}  // namespace g10::trace

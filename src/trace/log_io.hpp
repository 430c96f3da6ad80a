// Text serialization of the trace record types.
//
// Format: one record per line, tab-separated, leading record-type token:
//   META   <key>  <value>
//   PHASE  <B|E>  <path>      <time_ns>  <machine>
//   BLOCK  <resource>  <path>  <begin_ns>  <end_ns>  <machine>
//   SAMPLE <resource>  <machine>  <time_ns>  <value>
// META records carry run provenance (e.g. the fault spec a run was injected
// with, key "faults"); tools like the trace linter cross-check trace content
// against them. Lines starting with '#' and blank lines are ignored. The parser reports
// malformed lines with their line number and the offending text; in
// recovery mode it skips bad lines and keeps going (collecting up to
// ParseOptions::max_errors diagnostics) instead of stopping at the first —
// real logs from crashed workers are routinely truncated or corrupted.
//
// Ingestion is one zero-copy pass over the whole text: each line's fields
// are string_views into the input and numbers are read with from_chars, so
// no per-line string or stream is allocated, and records are appended
// straight into the ParseResult. Strict (non-recover) parses stop at the
// first bad line.
#pragma once

#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/records.hpp"

namespace g10::trace {

/// One META record: run provenance embedded in the log ("faults" carries
/// the canonical fault-spec string the run was injected with).
using LogMeta = std::pair<std::string, std::string>;

/// Writes all loggable records of a run (phase events, blocking events) plus
/// the given monitoring samples, in a stable order. META records, when
/// given, come right after the header; the default keeps existing callers'
/// output byte-identical.
void write_log(std::ostream& os,
               const std::vector<PhaseEventRecord>& phase_events,
               const std::vector<BlockingEventRecord>& blocking_events,
               const std::vector<MonitoringSampleRecord>& samples,
               const std::vector<LogMeta>& meta = {});

struct ParsedLog {
  std::vector<LogMeta> meta;
  std::vector<PhaseEventRecord> phase_events;
  std::vector<BlockingEventRecord> blocking_events;
  std::vector<MonitoringSampleRecord> samples;

  /// Value of the first META record with `key`, if any.
  std::optional<std::string> meta_value(std::string_view key) const;
};

struct ParseError {
  std::size_t line_number = 0;
  std::string message;
  std::string line;  ///< the offending line's text (trimmed)
};

struct ParseOptions {
  /// When true, malformed lines are skipped (and collected as errors) and
  /// parsing continues; when false, parsing stops at the first bad line.
  bool recover = false;
  /// Cap on stored ParseError entries, so a corrupt multi-GB log cannot
  /// balloon the error list; error_count still counts every bad line.
  std::size_t max_errors = 64;
};

/// Parses a log stream; returns the records or the error(s).
/// (A tiny expected<>-style result to stay dependency-free.)
struct ParseResult {
  ParsedLog log;
  /// First error encountered, if any (kept for existing call sites).
  std::optional<ParseError> error;
  /// All collected errors, capped at ParseOptions::max_errors.
  std::vector<ParseError> errors;
  /// Total number of malformed lines seen, including those beyond the cap.
  std::size_t error_count = 0;

  bool ok() const { return !error.has_value(); }
};

ParseResult parse_log(std::istream& is);
ParseResult parse_log(std::istream& is, const ParseOptions& options);

/// Parses an in-memory log (the zero-copy core: record fields are sliced
/// out of `text` with string_views). Files are read with
/// trace::read_trace_file.
ParseResult parse_log_text(std::string_view text,
                           const ParseOptions& options = {});

}  // namespace g10::trace

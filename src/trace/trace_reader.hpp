// Format-independent trace ingestion: read_trace_file reads a text log or
// a `.g10t` binary trace in one call, with seek-by-block filtering on
// binary input (DESIGN.md §16).
//
// The format comes from TraceReadOptions::format, or from the file's bytes
// (the .g10t magic wins over any extension) when it is kAuto:
//
//  - Text: the file is mapped (or buffered) and handed to the zero-copy
//    parser (parse_log_text); filters are applied per record after the
//    parse.
//  - Binary: the file is mapped; the header, symbol table (resolved to
//    global Symbols once), META section, and block index are parsed, then
//    the index is walked: blocks whose (machine range, time range,
//    path-type bloom) cannot match the filter are skipped without touching
//    their payloads, and the rest are decoded inline, once each, in index
//    order.
//
// Both formats return the same ParseResult shape the text parser produces:
// corrupt binary blocks surface as ParseError entries (with the block
// ordinal in the message), honoring recover/strict semantics — a strict
// read stops at the first corrupt block, a recovering read skips it and
// keeps going. An unfiltered read of a converted trace yields records
// byte-identical (through write_log) to parsing the original text.
//
// Filter semantics (identical for both formats, enforced by tests):
//  - machines: record kept when its machine is listed or is kGlobalMachine
//    (global phases carry the tree structure every analysis needs);
//  - phase_types: phase/blocking records kept when any path element's type
//    is listed (the requested subtrees and everything below them);
//    ancestor_types additionally keep paths whose LAST element's type is
//    listed (the enclosing chain above a requested subtree, without
//    admitting sibling subtrees). Monitoring samples are unaffected.
//    g10_analyze fills ancestor_types from the model's parent links so the
//    filtered slice stays an analyzable tree.
//  - time window: phase events and samples kept when time is inside
//    [time_min, time_max]; blocking events when [begin, end] overlaps it.
//    A time-sliced subset usually truncates phases mid-flight, so analyze
//    such extracts with --lenient.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "trace/log_io.hpp"

namespace g10::trace {

enum class TraceFormat {
  kAuto,    ///< sniff the magic bytes
  kText,
  kBinary,
};

/// Returns the format the sniff resolves `path` to, or an error message
/// (file unreadable).
struct SniffResult {
  TraceFormat format = TraceFormat::kText;
  std::optional<std::string> error;
};
SniffResult sniff_trace_format(const std::string& path);

struct TraceFilter {
  /// Machines to keep; empty = all. kGlobalMachine records always pass.
  std::vector<MachineId> machines;
  /// Phase-type names to keep (any path element matches); empty = all.
  std::vector<std::string> phase_types;
  /// Types whose paths are kept only when the LAST element matches — the
  /// ancestor chain enclosing a requested subtree. Ignored when
  /// phase_types is empty.
  std::vector<std::string> ancestor_types;
  /// Inclusive time window.
  TimeNs time_min = 0;
  TimeNs time_max = std::numeric_limits<TimeNs>::max();

  bool empty() const {
    return machines.empty() && phase_types.empty() && time_min == 0 &&
           time_max == std::numeric_limits<TimeNs>::max();
  }

};

struct TraceReadOptions {
  TraceFormat format = TraceFormat::kAuto;
  /// Text-parser semantics, reused for corrupt binary blocks: recover=true
  /// skips damage and keeps going, false stops at the first problem.
  bool recover = false;
  /// false = buffered read instead of mmap (identity-test knob).
  bool use_mmap = true;
  /// Forwarded to the text parser.
  std::size_t max_errors = 64;
};

/// Reads every record of `path` matching `filter`, in stream order.
/// File-level failures — unreadable file, truncated or corrupt `.g10t`
/// header or section table — are reported as one ParseError with
/// line_number 0, never as an assert or exception.
ParseResult read_trace_file(const std::string& path,
                            const TraceReadOptions& options = {},
                            const TraceFilter& filter = {});

}  // namespace g10::trace

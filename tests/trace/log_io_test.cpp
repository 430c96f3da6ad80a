#include "trace/log_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

namespace g10::trace {
namespace {

Symbol sym(std::string_view name) { return SymbolTable::global().intern(name); }

/// Round-trips parsed records back to text so two ParseResults can be
/// compared for record-level equality with one string comparison.
std::string serialize(const ParsedLog& log) {
  std::ostringstream os;
  write_log(os, log.phase_events, log.blocking_events, log.samples);
  return os.str();
}

TEST(LogIoTest, WriteParseRoundTrip) {
  std::vector<PhaseEventRecord> phases;
  phases.push_back({PhaseEventRecord::Kind::Begin,
                    PathRef{}.child("Job", 0), 0, kGlobalMachine});
  phases.push_back({PhaseEventRecord::Kind::End, PathRef{}.child("Job", 0),
                    5000, kGlobalMachine});
  std::vector<BlockingEventRecord> blocks;
  blocks.push_back(
      {sym("GC"), PathRef{}.child("Job", 0).child("T", 2), 10, 20, 1});
  std::vector<MonitoringSampleRecord> samples;
  samples.push_back({sym("cpu"), 0, 1000, 3.25});
  samples.push_back({sym("network"), 1, 2000, 1.5e8});

  std::ostringstream os;
  write_log(os, phases, blocks, samples);
  std::istringstream is(os.str());
  const ParseResult result = parse_log(is);
  ASSERT_TRUE(result.ok()) << result.error->message;

  ASSERT_EQ(result.log.phase_events.size(), 2u);
  EXPECT_EQ(result.log.phase_events[0].kind, PhaseEventRecord::Kind::Begin);
  EXPECT_EQ(result.log.phase_events[1].time, 5000);
  EXPECT_EQ(result.log.phase_events[0].path.to_string(), "Job.0");

  ASSERT_EQ(result.log.blocking_events.size(), 1u);
  EXPECT_EQ(SymbolTable::global().name(result.log.blocking_events[0].resource),
            "GC");
  EXPECT_EQ(result.log.blocking_events[0].begin, 10);
  EXPECT_EQ(result.log.blocking_events[0].end, 20);
  EXPECT_EQ(result.log.blocking_events[0].machine, 1);

  ASSERT_EQ(result.log.samples.size(), 2u);
  EXPECT_DOUBLE_EQ(result.log.samples[0].value, 3.25);
  EXPECT_DOUBLE_EQ(result.log.samples[1].value, 1.5e8);
}

TEST(LogIoTest, MetaRecordsRoundTripAndLookUp) {
  std::vector<PhaseEventRecord> phases;
  phases.push_back({PhaseEventRecord::Kind::Begin,
                    PathRef{}.child("Job", 0), 0, kGlobalMachine});
  std::ostringstream os;
  write_log(os, phases, {}, {},
            {{"faults", "crash:w1@40%"}, {"engine", "pregel"}});
  // META records follow the header, before any PHASE record.
  EXPECT_EQ(os.str().find("META\tfaults\tcrash:w1@40%"),
            os.str().find('\n') + 1);
  const ParseResult result = parse_log_text(os.str());
  ASSERT_TRUE(result.ok()) << result.error->message;
  ASSERT_EQ(result.log.meta.size(), 2u);
  EXPECT_EQ(result.log.meta_value("faults"), "crash:w1@40%");
  EXPECT_EQ(result.log.meta_value("engine"), "pregel");
  EXPECT_EQ(result.log.meta_value("absent"), std::nullopt);
}

TEST(LogIoTest, MetaValueKeepsEmbeddedTabsAndRejectsMissingFields) {
  const ParseResult tabs = parse_log_text("META\tnote\ta\tb\tc\n");
  ASSERT_TRUE(tabs.ok());
  EXPECT_EQ(tabs.log.meta_value("note"), "a\tb\tc");
  EXPECT_FALSE(parse_log_text("META\tonlykey\n").ok());
  EXPECT_FALSE(parse_log_text("META\t\tvalue\n").ok());
}

TEST(LogIoTest, IgnoresCommentsAndBlankLines) {
  std::istringstream is("# comment\n\nPHASE\tB\tJob.0\t0\t-1\n");
  const ParseResult result = parse_log(is);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.log.phase_events.size(), 1u);
}

TEST(LogIoTest, ReportsLineNumberOnError) {
  std::istringstream is("# ok\nPHASE\tB\tJob.0\t0\t-1\nPHASE\tX\tJob.0\t1\t-1\n");
  const ParseResult result = parse_log(is);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error->line_number, 3u);
  EXPECT_NE(result.error->message.find("B or E"), std::string::npos);
}

TEST(LogIoTest, RejectsBadRecords) {
  const auto fails = [](const std::string& line) {
    std::istringstream is(line);
    return !parse_log(is).ok();
  };
  EXPECT_TRUE(fails("WHAT\tis\tthis\n"));
  EXPECT_TRUE(fails("PHASE\tB\tJob.0\t-5\t-1\n"));        // negative time
  EXPECT_TRUE(fails("PHASE\tB\tJob\t0\t-1\n"));           // bad path
  EXPECT_TRUE(fails("PHASE\tB\tJob.0\t0\n"));             // missing field
  EXPECT_TRUE(fails("BLOCK\tGC\tJob.0\t20\t10\t0\n"));    // end < begin
  EXPECT_TRUE(fails("BLOCK\t\tJob.0\t0\t10\t0\n"));       // empty resource
  EXPECT_TRUE(fails("SAMPLE\tcpu\t0\t100\tnotanumber\n"));
  EXPECT_TRUE(fails("SAMPLE\tcpu\t0\t100\tnan\n"));
  EXPECT_TRUE(fails("SAMPLE\tcpu\t0\t100\t-inf\n"));
}

TEST(LogIoTest, EmptyLogIsValid) {
  std::istringstream is("");
  EXPECT_TRUE(parse_log(is).ok());
}

// Robustness: arbitrary mutations of a valid log either parse (when the
// mutation hits a comment/number in a compatible way) or fail cleanly with
// a line number — never crash and never produce out-of-range records.
TEST(LogIoTest, MutatedLogsFailCleanly) {
  std::vector<PhaseEventRecord> phases;
  phases.push_back({PhaseEventRecord::Kind::Begin,
                    PathRef{}.child("Job", 0), 0, -1});
  phases.push_back({PhaseEventRecord::Kind::End, PathRef{}.child("Job", 0),
                    5000, -1});
  std::ostringstream os;
  write_log(os, phases, {}, {});
  const std::string original = os.str();
  for (std::size_t pos = 0; pos < original.size(); ++pos) {
    for (const char replacement : {'\t', 'x', '-', '0'}) {
      std::string mutated = original;
      mutated[pos] = replacement;
      std::istringstream is(mutated);
      const ParseResult result = parse_log(is);  // must not crash
      if (!result.ok()) {
        EXPECT_GT(result.error->line_number, 0u);
        EXPECT_FALSE(result.error->message.empty());
      } else {
        for (const auto& rec : result.log.phase_events) {
          EXPECT_GE(rec.time, 0);
        }
      }
    }
  }
}

TEST(LogIoTest, ErrorCarriesOffendingLineText) {
  std::istringstream is("PHASE\tX\tJob.0\t1\t-1\n");
  const ParseResult result = parse_log(is);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error->line, "PHASE\tX\tJob.0\t1\t-1");
}

TEST(LogIoTest, RecoveryModeSkipsBadLinesAndKeepsGoing) {
  std::istringstream is(
      "PHASE\tB\tJob.0\t0\t-1\n"
      "garbage line\n"
      "PHASE\tX\tJob.0\t1\t-1\n"
      "PHASE\tE\tJob.0\t5\t-1\n");
  ParseOptions options;
  options.recover = true;
  const ParseResult result = parse_log(is, options);
  // Good records around the damage are all kept.
  EXPECT_EQ(result.log.phase_events.size(), 2u);
  EXPECT_EQ(result.error_count, 2u);
  ASSERT_EQ(result.errors.size(), 2u);
  EXPECT_EQ(result.errors[0].line_number, 2u);
  EXPECT_EQ(result.errors[1].line_number, 3u);
  // The first error is also surfaced the legacy way.
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error->line_number, 2u);
}

TEST(LogIoTest, RecoveryModeCapsStoredErrors) {
  std::ostringstream os;
  for (int i = 0; i < 50; ++i) os << "junk\t" << i << '\n';
  std::istringstream is(os.str());
  ParseOptions options;
  options.recover = true;
  options.max_errors = 8;
  const ParseResult result = parse_log(is, options);
  EXPECT_EQ(result.errors.size(), 8u);
  EXPECT_EQ(result.error_count, 50u);
}

TEST(LogIoTest, TruncatedLastLineFailsCleanlyInStrictMode) {
  // A crashed writer typically leaves a half-written last line.
  std::istringstream is("PHASE\tB\tJob.0\t0\t-1\nPHASE\tE\tJo");
  const ParseResult result = parse_log(is);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error->line_number, 2u);
  EXPECT_EQ(result.log.phase_events.size(), 1u);
}

TEST(LogIoTest, HandlesWindowsLineEndings) {
  std::istringstream is("PHASE\tB\tJob.0\t0\t-1\r\nPHASE\tE\tJob.0\t5\t-1\r\n");
  const ParseResult result = parse_log(is);
  ASSERT_TRUE(result.ok()) << result.error->message;
  EXPECT_EQ(result.log.phase_events.size(), 2u);
}

TEST(LogIoTest, FinalLineWithoutNewlineIsParsed) {
  const std::string text = "PHASE\tB\tJob.0\t0\t-1\nPHASE\tE\tJob.0\t5\t-1";
  const ParseResult result = parse_log_text(text);
  ASSERT_TRUE(result.ok()) << result.error->message;
  ASSERT_EQ(result.log.phase_events.size(), 2u);
  EXPECT_EQ(result.log.phase_events[1].time, 5);
}

// ---------------------------------------------------------------------------
// Longer generated logs: exact line numbers, strict stops, CRLF and
// unterminated final lines.

/// A log with records on every line and damage at the given 1-based lines.
/// Line i's text depends only on i, so a shorter log is a prefix.
std::string make_log(std::size_t lines, const std::vector<std::size_t>& bad) {
  std::ostringstream os;
  for (std::size_t i = 1; i <= lines; ++i) {
    if (std::find(bad.begin(), bad.end(), i) != bad.end()) {
      os << "BROKEN\trecord\t" << i << '\n';
    } else if (i % 7 == 0) {
      os << "# comment line " << i << '\n';
    } else if (i % 3 == 0) {
      os << "SAMPLE\tcpu\t0\t" << i * 100 << "\t"
         << 0.25 * static_cast<double>(i) << '\n';
    } else {
      os << "PHASE\t" << (i % 2 ? 'B' : 'E') << "\tJob.0\t" << i * 10
         << "\t-1\n";
    }
  }
  return os.str();
}

/// make_log's records with the damaged lines left out.
std::string expected_records(std::size_t lines,
                             const std::vector<std::size_t>& bad) {
  std::string kept;
  std::istringstream all(make_log(lines, {}));
  std::string line;
  for (std::size_t i = 1; std::getline(all, line); ++i) {
    if (std::find(bad.begin(), bad.end(), i) == bad.end()) {
      kept += line + '\n';
    }
  }
  return serialize(parse_log_text(kept).log);
}

/// Rewrites every "\n" as "\r\n" (CRLF logs from Windows-side tooling).
std::string with_crlf(const std::string& text) {
  std::string out;
  out.reserve(text.size() * 2);
  for (const char c : text) {
    if (c == '\n') out.push_back('\r');
    out.push_back(c);
  }
  return out;
}

TEST(LogIoTest, LenientParseReportsExactLineNumbers) {
  const std::vector<std::size_t> bad = {5, 40, 41, 333, 499};
  const ParseResult result =
      parse_log_text(make_log(500, bad), {.recover = true});
  ASSERT_EQ(result.errors.size(), bad.size());
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_EQ(result.errors[i].line_number, bad[i]);
    EXPECT_EQ(result.errors[i].message, "unknown record type: BROKEN");
    EXPECT_EQ(result.errors[i].line,
              "BROKEN\trecord\t" + std::to_string(bad[i]));
  }
  EXPECT_EQ(result.error_count, bad.size());
  ASSERT_TRUE(result.error.has_value());
  EXPECT_EQ(result.error->line_number, 5u);
  EXPECT_EQ(serialize(result.log), expected_records(500, bad));
}

TEST(LogIoTest, StrictParseStopsAtTheFirstError) {
  const ParseResult result = parse_log_text(make_log(300, {142, 260}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error->line_number, 142u);
  EXPECT_EQ(result.error->message, "unknown record type: BROKEN");
  EXPECT_EQ(result.error_count, 1u);
  ASSERT_EQ(result.errors.size(), 1u);
  // Exactly the records of the lines before the stop are kept.
  EXPECT_EQ(serialize(result.log), expected_records(141, {}));
}

TEST(LogIoTest, CrlfLenientParseMatchesLf) {
  const std::vector<std::size_t> bad = {40, 251};
  const ParseResult crlf =
      parse_log_text(with_crlf(make_log(400, bad)), {.recover = true});
  ASSERT_EQ(crlf.errors.size(), bad.size());
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_EQ(crlf.errors[i].line_number, bad[i]);
    // The carriage return is trimmed from the reported line text.
    EXPECT_EQ(crlf.errors[i].line,
              "BROKEN\trecord\t" + std::to_string(bad[i]));
  }
  // CRLF changes bytes, not records: the LF parse yields the same records.
  EXPECT_EQ(serialize(crlf.log), expected_records(400, bad));
}

TEST(LogIoTest, MissingFinalNewlineKeepsTheLastRecord) {
  std::string text = make_log(300, {});
  ASSERT_EQ(text.back(), '\n');
  text.pop_back();  // crashed writer: last line has no terminator
  const ParseResult result = parse_log_text(text);
  ASSERT_TRUE(result.ok()) << result.error->message;
  // The unterminated record is present, not dropped.
  EXPECT_EQ(serialize(result.log), expected_records(300, {}));
}

TEST(LogIoTest, CrlfWithTruncatedFinalLineReportsTheLastLine) {
  // Both quirks at once: CRLF line endings and a half-written final line.
  std::string text = with_crlf(make_log(200, {}));
  text += "PHASE\tE\tJo";  // no terminator
  const ParseResult result = parse_log_text(text, {.recover = true});
  EXPECT_EQ(result.error_count, 1u);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].line_number, 201u);
  EXPECT_EQ(result.errors[0].line, "PHASE\tE\tJo");
  EXPECT_EQ(serialize(result.log), expected_records(200, {}));
}

}  // namespace
}  // namespace g10::trace

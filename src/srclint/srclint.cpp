#include "srclint/srclint.hpp"

#include <algorithm>
#include <vector>

#include "srclint/source_lexer.hpp"

namespace g10::srclint {
namespace {

constexpr std::string_view kUnorderedIter = "src-unordered-iter";
constexpr std::string_view kRawEntropy = "src-raw-entropy";
constexpr std::string_view kRawMutex = "src-raw-mutex";
constexpr std::string_view kPointerKey = "src-pointer-key";
constexpr std::string_view kWaiverBare = "src-waiver-bare";
constexpr std::string_view kWaiverUnknown = "src-waiver-unknown";
constexpr std::string_view kWaiverUnused = "src-waiver-unused";

/// Waiver tag (the part before "-ok") for each suppressible rule.
std::string_view waiver_tag(std::string_view rule_id) {
  if (rule_id == kUnorderedIter) return "unordered";
  if (rule_id == kRawEntropy) return "entropy";
  if (rule_id == kRawMutex) return "mutex";
  if (rule_id == kPointerKey) return "pointer-key";
  return {};
}

bool known_tag(std::string_view tag) {
  return tag == "unordered" || tag == "entropy" || tag == "mutex" ||
         tag == "pointer-key";
}

struct Waiver {
  std::string_view tag;
  std::string_view reason;
  std::size_t target_line = 0;  ///< line the waiver applies to
  std::size_t line = 0;         ///< line the waiver comment starts on
  bool bare = false;            ///< missing or empty reason
  bool used = false;
};

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r' || s.back() == '\n')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parses `// srclint: <tag>-ok(<reason>)` out of a comment. A comment on a
/// code line waives that line; a comment on its own line waives the line
/// after the comment ends.
std::vector<Waiver> parse_waivers(const std::vector<Comment>& comments) {
  std::vector<Waiver> waivers;
  for (const Comment& comment : comments) {
    // The waiver must lead the comment — prose that merely *mentions* the
    // grammar ("suppress with // srclint: ...") is not a suppression.
    std::string_view body = comment.text;
    while (!body.empty() && (body.front() == ' ' || body.front() == '\t')) {
      body.remove_prefix(1);
    }
    if (body.substr(0, 8) != "srclint:") continue;
    std::string_view rest = trim(body.substr(8));
    // Tag runs up to "-ok"; everything srclint understands is lowercase
    // letters and dashes.
    std::size_t tag_end = 0;
    while (tag_end < rest.size() &&
           ((rest[tag_end] >= 'a' && rest[tag_end] <= 'z') ||
            rest[tag_end] == '-')) {
      ++tag_end;
    }
    std::string_view tag = rest.substr(0, tag_end);
    if (tag.size() < 3 || tag.substr(tag.size() - 3) != "-ok") {
      // "srclint:" with no parseable tag: treat as a bare waiver so typos
      // fail loudly instead of silently suppressing nothing.
      Waiver waiver;
      waiver.tag = tag;
      waiver.line = comment.line;
      waiver.bare = true;
      waiver.target_line =
          comment.code_before ? comment.line : comment.end_line + 1;
      waivers.push_back(waiver);
      continue;
    }
    tag.remove_suffix(3);
    Waiver waiver;
    waiver.tag = tag;
    waiver.line = comment.line;
    waiver.target_line =
        comment.code_before ? comment.line : comment.end_line + 1;
    std::string_view after = trim(rest.substr(tag_end));
    if (after.size() >= 2 && after.front() == '(') {
      const std::size_t close = after.rfind(')');
      if (close != std::string_view::npos && close > 0) {
        waiver.reason = trim(after.substr(1, close - 1));
      }
    }
    waiver.bare = waiver.reason.empty();
    waivers.push_back(waiver);
  }
  return waivers;
}

/// The scanner proper: one instance per file.
class Scanner {
 public:
  Scanner(std::string_view text, const std::string& path)
      : path_(path), lexed_(lex_source(text)) {}

  lint::LintReport run(ScanStats* stats) {
    waivers_ = parse_waivers(lexed_.comments);
    collect_declared_names();
    scan_unordered_iteration();
    scan_entropy();
    scan_raw_mutex();
    scan_pointer_keys();
    finish_waivers();
    if (stats != nullptr) {
      ++stats->files;
      for (const Waiver& waiver : waivers_) {
        if (waiver.bare) {
          ++stats->bare_waivers;
        } else {
          ++stats->waivers;
        }
      }
      stats->suppressed += suppressed_;
    }
    return std::move(report_);
  }

 private:
  const std::vector<Token>& tokens() const { return lexed_.tokens; }

  std::string_view text_at(std::size_t i) const {
    return i < tokens().size() ? tokens()[i].text : std::string_view{};
  }

  bool is_ident(std::size_t i, std::string_view name) const {
    return i < tokens().size() &&
           tokens()[i].kind == TokenKind::kIdentifier &&
           tokens()[i].text == name;
  }

  bool path_contains(std::string_view needle) const {
    return path_.find(needle) != std::string::npos;
  }

  /// Emits a finding unless a matching waiver targets its line.
  void emit(std::string_view rule_id, std::size_t line, std::string context,
            std::string message) {
    const std::string_view tag = waiver_tag(rule_id);
    for (Waiver& waiver : waivers_) {
      if (waiver.bare || waiver.tag != tag) continue;
      if (waiver.target_line != line) continue;
      waiver.used = true;
      ++suppressed_;
      return;
    }
    const lint::RuleInfo* info = find_src_rule(rule_id);
    report_.add(std::string(rule_id),
                info != nullptr ? info->severity : lint::Severity::kError,
                lint::Location{path_, line, std::move(context)},
                std::move(message));
  }

  static const lint::RuleInfo* find_src_rule(std::string_view rule_id) {
    for (const lint::RuleInfo& info : rule_catalog()) {
      if (info.id == rule_id) return &info;
    }
    return nullptr;
  }

  /// Index just past a balanced template-argument list whose '<' is at
  /// `open`. '>>' closes two levels (the lexer fuses it).
  std::size_t skip_template_args(std::size_t open) const {
    int depth = 0;
    for (std::size_t i = open; i < tokens().size(); ++i) {
      const std::string_view t = tokens()[i].text;
      if (t == "<" || t == "<<") depth += t.size();
      if (t == ">" || t == ">>") {
        depth -= static_cast<int>(t.size());
        if (depth <= 0) return i + 1;
      }
    }
    return tokens().size();
  }

  /// Index just past a balanced parenthesis group whose '(' is at `open`.
  std::size_t skip_parens(std::size_t open) const {
    int depth = 0;
    for (std::size_t i = open; i < tokens().size(); ++i) {
      if (tokens()[i].text == "(") ++depth;
      if (tokens()[i].text == ")") {
        --depth;
        if (depth == 0) return i + 1;
      }
    }
    return tokens().size();
  }

  /// Records which identifiers this file declares with an unordered
  /// container type.
  /// Intra-file and flow-insensitive — exactly the precision a token-shape
  /// scanner can honestly claim — but it covers locals, members, and
  /// parameters, which is where every real finding lives.
  void collect_declared_names() {
    const auto declared_name = [&](std::size_t i) -> std::string_view {
      while (i < tokens().size() &&
             (text_at(i) == "&" || text_at(i) == "*" ||
              is_ident(i, "const"))) {
        ++i;
      }
      if (i < tokens().size() &&
          tokens()[i].kind == TokenKind::kIdentifier) {
        return tokens()[i].text;
      }
      return {};
    };
    for (std::size_t i = 0; i < tokens().size(); ++i) {
      const std::string_view t = text_at(i);
      if (tokens()[i].kind != TokenKind::kIdentifier) continue;
      if (t == "unordered_map" || t == "unordered_set" ||
          t == "unordered_multimap" || t == "unordered_multiset") {
        std::size_t j = i + 1;
        if (text_at(j) == "<") j = skip_template_args(j);
        const std::string_view name = declared_name(j);
        if (!name.empty()) unordered_names_.push_back(name);
      }
    }
  }

  bool is_unordered_name(std::string_view name) const {
    return std::find(unordered_names_.begin(), unordered_names_.end(),
                     name) != unordered_names_.end();
  }

  // D1: range-for over a variable declared as std::unordered_*.
  void scan_unordered_iteration() {
    for (std::size_t i = 0; i + 1 < tokens().size(); ++i) {
      if (!is_ident(i, "for") || text_at(i + 1) != "(") continue;
      const std::size_t close = skip_parens(i + 1) - 1;
      // Top-level ':' marks a range-for (':' from '::' is fused by the
      // lexer, and the ternary '?:' cannot appear at depth 1 in a for).
      std::size_t colon = 0;
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        const std::string_view t = tokens()[j].text;
        if (t == "(") ++depth;
        if (t == ")") --depth;
        if (t == ":" && depth == 1) {
          colon = j;
          break;
        }
      }
      if (colon == 0) continue;
      // The iterated expression: take its final identifier that is not a
      // call — `pending`, `replay.entries`, `*open_` all resolve to the
      // container name.
      std::string_view candidate;
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (tokens()[j].kind == TokenKind::kIdentifier &&
            text_at(j + 1) != "(") {
          candidate = tokens()[j].text;
        }
      }
      if (!candidate.empty() && is_unordered_name(candidate)) {
        emit(kUnorderedIter, tokens()[i].line, std::string(candidate),
             "range-for over unordered container '" + std::string(candidate) +
                 "': hash order is nondeterministic across platforms and "
                 "runs; sort at the output boundary or waive with "
                 "unordered-ok(<reason>)");
      }
    }
  }

  // D2: ambient entropy/time/environment reads outside common/rng and tool
  // mains.
  void scan_entropy() {
    if (path_contains("common/rng") || path_contains("tools/")) return;
    for (std::size_t i = 0; i < tokens().size(); ++i) {
      if (tokens()[i].kind != TokenKind::kIdentifier) continue;
      const std::string_view t = tokens()[i].text;
      const bool named = t == "rand" || t == "srand" ||
                         t == "random_device" || t == "getenv" ||
                         t == "system_clock";
      const bool time_call =
          t == "time" && text_at(i + 1) == "(" &&
          (i == 0 || (text_at(i - 1) != "." && text_at(i - 1) != "->"));
      if (!named && !time_call) continue;
      std::string message = "'";
      message += t;
      message +=
          "' is an ambient entropy/time/environment source; route "
          "randomness through common/rng and configuration through "
          "explicit parameters, or waive with entropy-ok(<reason>)";
      emit(kRawEntropy, tokens()[i].line, std::string(t),
           std::move(message));
    }
  }

  // D3: raw standard mutexes/locks instead of the annotated g10 wrappers.
  void scan_raw_mutex() {
    if (path_contains("common/mutex.hpp")) return;  // the wrapper itself
    for (std::size_t i = 0; i + 2 < tokens().size(); ++i) {
      if (!is_ident(i, "std") || text_at(i + 1) != "::") continue;
      const std::string_view t = text_at(i + 2);
      if (t != "mutex" && t != "recursive_mutex" && t != "timed_mutex" &&
          t != "recursive_timed_mutex" && t != "shared_mutex" &&
          t != "shared_timed_mutex" && t != "lock_guard" &&
          t != "unique_lock" && t != "scoped_lock" && t != "shared_lock") {
        continue;
      }
      emit(kRawMutex, tokens()[i].line, "std::" + std::string(t),
           "raw 'std::" + std::string(t) +
               "' evades Clang thread-safety analysis; use the annotated "
               "g10::Mutex/g10::MutexLock (common/mutex.hpp), or waive "
               "with mutex-ok(<reason>)");
    }
  }

  // D4: pointer-typed keys in ordered containers (address order is ASLR-
  // and allocation-order-dependent).
  void scan_pointer_keys() {
    for (std::size_t i = 0; i + 3 < tokens().size(); ++i) {
      if (!is_ident(i, "std") || text_at(i + 1) != "::") continue;
      const std::string_view t = text_at(i + 2);
      if (t != "map" && t != "set" && t != "multimap" && t != "multiset") {
        continue;
      }
      if (text_at(i + 3) != "<") continue;
      // First top-level template argument: up to a depth-0 ',' or the close.
      int depth = 0;
      std::string_view last;
      for (std::size_t j = i + 3; j < tokens().size(); ++j) {
        const std::string_view tok = tokens()[j].text;
        if (tok == "<" || tok == "<<") depth += tok.size();
        if (tok == ">" || tok == ">>") {
          depth -= static_cast<int>(tok.size());
          if (depth <= 0) break;
        }
        if (tok == "," && depth == 1) break;
        if (j > i + 3) last = tok;
      }
      if (last == "*") {
        emit(kPointerKey, tokens()[i].line, "std::" + std::string(t),
             "pointer-typed key in ordered 'std::" + std::string(t) +
                 "': iteration order depends on allocation addresses; key "
                 "on a stable id, or waive with pointer-key-ok(<reason>)");
      }
    }
  }

  /// Bare/unknown/unused waiver findings, after every rule has run.
  void finish_waivers() {
    for (const Waiver& waiver : waivers_) {
      if (waiver.bare) {
        report_.add(std::string(kWaiverBare), lint::Severity::kError,
                    lint::Location{path_, waiver.line,
                                   std::string(waiver.tag)},
                    "suppression waiver without a reason: every waiver must "
                    "say why, e.g. // srclint: " +
                        std::string(waiver.tag.empty() ? "unordered"
                                                       : waiver.tag) +
                        "-ok(<reason>)");
      } else if (!known_tag(waiver.tag)) {
        report_.add(std::string(kWaiverUnknown), lint::Severity::kError,
                    lint::Location{path_, waiver.line,
                                   std::string(waiver.tag)},
                    "unknown waiver tag '" + std::string(waiver.tag) +
                        "-ok'; known tags: unordered, entropy, mutex, "
                        "pointer-key");
      } else if (!waiver.used) {
        report_.add(std::string(kWaiverUnused), lint::Severity::kWarning,
                    lint::Location{path_, waiver.line,
                                   std::string(waiver.tag)},
                    "waiver suppresses nothing on line " +
                        std::to_string(waiver.target_line) +
                        "; remove it or move it next to the finding it "
                        "excuses");
      }
    }
  }

  const std::string& path_;
  LexedSource lexed_;
  std::vector<Waiver> waivers_;
  std::vector<std::string_view> unordered_names_;
  lint::LintReport report_;
  std::size_t suppressed_ = 0;
};

}  // namespace

lint::LintReport scan_source(std::string_view text, const std::string& path,
                             ScanStats* stats) {
  return Scanner(text, path).run(stats);
}

const std::vector<lint::RuleInfo>& rule_catalog() {
  static const std::vector<lint::RuleInfo> kCatalog = {
      {"src-pointer-key", lint::Severity::kError,
       "pointer-typed key in std::map/std::set; iteration order follows "
       "allocation addresses, which differ across runs (ASLR)"},
      {"src-raw-entropy", lint::Severity::kError,
       "rand/srand/std::random_device/time()/system_clock/getenv outside "
       "common/rng and tool mains; ambient entropy breaks replayability"},
      {"src-raw-mutex", lint::Severity::kError,
       "raw std::mutex/lock_guard/unique_lock (and friends) instead of the "
       "annotated g10::Mutex/MutexLock; evades -Werror=thread-safety"},
      {"src-unordered-iter", lint::Severity::kError,
       "range-for over a std::unordered_map/unordered_set variable; hash "
       "order may leak into trace output, reports, or hashes"},
      {"src-waiver-bare", lint::Severity::kError,
       "a srclint suppression waiver carries no reason string"},
      {"src-waiver-unknown", lint::Severity::kError,
       "a srclint waiver names a tag the scanner does not know"},
      {"src-waiver-unused", lint::Severity::kWarning,
       "a srclint waiver suppresses nothing; stale suppressions must not "
       "outlive the code they excused"},
  };
  return kCatalog;
}

}  // namespace g10::srclint

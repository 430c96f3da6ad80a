// srclint — determinism & concurrency lint over this repository's own C++
// sources (DESIGN.md §14).
//
// Grade10's headline guarantee is bit-exact reproducibility: golden trace
// fixtures, --det-check digests, and byte-identical --resume reports all
// pin it at runtime. Nothing, however, *statically* stops the
// next change from introducing an unordered-container iteration that leaks
// hash order into a report, a stray std::random_device, or an unannotated
// std::mutex that Clang's thread-safety analysis cannot see. srclint is a
// lightweight, no-LLVM static pass (a token-shape scanner over
// source_lexer.hpp's stream) enforcing the project invariants clang-tidy
// cannot express:
//
//   D1 src-unordered-iter      range-for over a std::unordered_* variable
//                              (hash order may leak into output/hashing)
//   D2 src-raw-entropy         rand()/std::random_device/time()/
//                              system_clock/getenv outside common/rng and
//                              tool mains
//   D3 src-raw-mutex           raw std::mutex/lock_guard/unique_lock/...
//                              instead of the annotated g10::Mutex/MutexLock
//   D4 src-pointer-key         pointer-typed key in std::map/std::set
//                              (address-dependent ordering)
//
// A finding is waived with a reasoned comment on (or immediately above) the
// offending line; the waiver must lead the comment (prose that merely
// mentions the grammar is not a suppression). Tags: unordered, entropy,
// mutex, pointer-key. Example:
//
//   foo();  // srclint: unordered-ok(<reason>)
//
// A waiver without a reason is itself an error (src-waiver-bare) and makes
// the CLI exit with the bad-args code: suppressions are part of the tool's
// input grammar, and an unexplained one is malformed input. Unused waivers
// are reported (src-waiver-unused) so suppressions cannot outlive the code
// they excuse.
//
// Findings reuse the PR 3 lint infrastructure (lint::LintFinding /
// lint::LintReport and its text/JSON emitters); this header adds the rule
// catalog for the src-* ids and the per-scan suppression accounting.
#pragma once

#include <string>
#include <string_view>

#include "grade10/lint/lint.hpp"

namespace g10::srclint {

/// Suppression accounting for one or more scans.
struct ScanStats {
  std::size_t files = 0;
  std::size_t waivers = 0;      ///< well-formed waivers encountered
  std::size_t suppressed = 0;   ///< findings silenced by a waiver
  std::size_t bare_waivers = 0; ///< waivers missing their reason (errors)

  void merge(const ScanStats& other) {
    files += other.files;
    waivers += other.waivers;
    suppressed += other.suppressed;
    bare_waivers += other.bare_waivers;
  }
};

/// Scans one file's contents. `path` is used for finding locations and for
/// the path-based exemptions (D2 skips common/rng* and tool mains under
/// tools/; D3 skips the annotated wrapper common/mutex.hpp itself).
lint::LintReport scan_source(std::string_view text, const std::string& path,
                             ScanStats* stats = nullptr);

/// Every src-* rule the scanner can emit, sorted by id (for --rules and
/// the docs; same shape as lint::rule_catalog()).
const std::vector<lint::RuleInfo>& rule_catalog();

}  // namespace g10::srclint

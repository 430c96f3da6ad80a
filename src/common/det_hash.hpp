// Runtime determinism oracle (DESIGN.md §14).
//
// A DetHasher folds per-phase event/state streams into incremental FNV-1a
// hashes, one running hash per phase path plus one overall hash that also
// covers stream order. Two executions of the same workload — repeated runs
// of an engine, or repeated characterizations of one trace — must
// produce byte-identical streams, so their summaries must match hash for
// hash. When they do not, first_divergence() names the *first* phase path
// (in stream order) whose hash differs, turning "the logs differ somewhere"
// into "phase X diverged first".
//
// The hasher is deliberately order-sensitive per phase: folding the same
// values in a different order yields a different hash, which is exactly the
// property the determinism sweeps (`g10_run --det-check`, `g10_analyze
// --det-check`) rely on to catch unordered-container iteration and other
// scheduling-dependent output.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace g10 {

/// 64-bit FNV-1a over a byte range, continuing from `hash`.
std::uint64_t fnv1a64(std::uint64_t hash, const void* data, std::size_t size);

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

/// Digest of one execution: a running hash per phase path in first-seen
/// order, and an overall hash covering every fold including stream order.
struct DetSummary {
  struct Entry {
    std::string path;         ///< phase path (or synthetic stream name)
    std::uint64_t hash = 0;   ///< incremental FNV-1a of this path's folds
    std::uint64_t count = 0;  ///< number of fold calls on this path
  };
  std::vector<Entry> phases;  ///< in first-fold order
  std::uint64_t overall = kFnvOffsetBasis;
  std::uint64_t total_folds = 0;
};

/// First point where two summaries disagree, in stream order.
struct DetDivergence {
  std::string path;        ///< first divergent phase path
  std::string detail;      ///< human-readable what-differed description
  std::uint64_t lhs = 0;   ///< per-path hash on the left side (0 if absent)
  std::uint64_t rhs = 0;   ///< per-path hash on the right side (0 if absent)
};

class DetHasher {
 public:
  /// Folds `size` raw bytes into the hash of `path` (and the overall hash).
  void fold(std::string_view path, const void* data, std::size_t size);

  void fold_bytes(std::string_view path, std::string_view bytes) {
    fold(path, bytes.data(), bytes.size());
  }
  void fold_u64(std::string_view path, std::uint64_t value) {
    fold(path, &value, sizeof(value));
  }
  void fold_i64(std::string_view path, std::int64_t value) {
    fold(path, &value, sizeof(value));
  }
  /// Folds the bit pattern, so -0.0 vs 0.0 and NaN payloads are detected.
  void fold_double(std::string_view path, double value) {
    fold(path, &value, sizeof(value));
  }

  /// The accumulated digest. The hasher can keep folding afterwards.
  DetSummary summary() const;

 private:
  struct PathHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  DetSummary summary_;
  // Index into summary_.phases; lookups only — the ordered view lives in
  // the vector, so iteration order of this map never reaches any output.
  std::unordered_map<std::string, std::size_t, PathHash, std::equal_to<>>
      index_;
};

/// Walks both summaries in stream order and returns the first entry whose
/// path, fold count, or hash differs (or that exists on one side only);
/// nullopt when the summaries are identical.
std::optional<DetDivergence> first_divergence(const DetSummary& lhs,
                                              const DetSummary& rhs);

}  // namespace g10

// Waiver fixture: every finding below is suppressed with a reasoned
// waiver; the final waiver is stale and must be reported unused.
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

struct Node {};

int all_waived() {
  std::unordered_map<std::string, int> counts;
  int total = 0;
  // srclint: unordered-ok(totals are order-independent sums)
  for (const auto& [key, value] : counts) {
    total += value;
  }
  total += std::rand();  // srclint: entropy-ok(fixture exercises inline waivers)
  static std::mutex guard;  // srclint: mutex-ok(fixture; no guarded state)
  guard.lock();
  guard.unlock();
  // srclint: pointer-key-ok(keys are never iterated in order)
  std::map<Node*, int> ranks;
  // srclint: unordered-ok(stale waiver, nothing to suppress)
  return total + static_cast<int>(ranks.size());
}

#include "trace/symbol_table.hpp"

#include <limits>

#include "common/strings.hpp"

namespace g10::trace {

namespace {

// FNV-1a style combine over (type, index) pairs. In-process only: symbol
// values depend on intern order, so these hashes must never be persisted
// or compared across runs.
constexpr std::size_t kFnvPrime = 0x100000001b3ull;

std::size_t combine(std::size_t hash, std::uint64_t value) {
  hash ^= value;
  hash *= kFnvPrime;
  return hash;
}

std::size_t combine_entry(std::size_t hash, const PathEntry& entry) {
  hash = combine(hash, entry.type);
  hash = combine(hash, static_cast<std::uint64_t>(entry.index));
  return hash;
}

}  // namespace

SymbolTable& SymbolTable::global() {
  static SymbolTable* table = new SymbolTable();  // never destroyed
  return *table;
}

Symbol SymbolTable::intern(std::string_view name) {
  MutexLock lock(mutex_);
  const auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  G10_CHECK(names_.size() < std::numeric_limits<Symbol>::max());
  const auto symbol = static_cast<Symbol>(names_.size());
  names_.emplace_back(name);
  index_.emplace(std::string_view(names_.back()), symbol);
  return symbol;
}

std::string_view SymbolTable::name(Symbol symbol) const {
  MutexLock lock(mutex_);
  G10_CHECK_MSG(symbol < names_.size(), "unknown symbol: " << symbol);
  // Deque storage is stable: the view outlives the lock.
  return names_[symbol];
}

void PathRef::push(Symbol type, std::int64_t index) {
  const PathEntry entry{type, index};
  if (size_ < kInlineCapacity) {
    inline_[size_] = entry;
  } else {
    if (size_ == kInlineCapacity) {
      overflow_.assign(inline_, inline_ + kInlineCapacity);
    }
    overflow_.push_back(entry);
  }
  ++size_;
  hash_ = combine_entry(hash_, entry);
}

PathRef PathRef::child(Symbol type, std::int64_t index) const {
  PathRef result = *this;
  result.push(type, index);
  return result;
}

PathRef PathRef::parent() const {
  PathRef result;
  if (size_ > 1) {
    for (std::size_t i = 0; i + 1 < size_; ++i) {
      result.push(data()[i].type, data()[i].index);
    }
  }
  return result;
}

std::string PathRef::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void PathRef::append_to(std::string& out) const {
  const SymbolTable& table = SymbolTable::global();
  for (std::size_t i = 0; i < size_; ++i) {
    if (i != 0) out += '/';
    out += table.name(data()[i].type);
    out += '.';
    out += std::to_string(data()[i].index);
  }
}

std::optional<PathRef> parse_phase_path(std::string_view text) {
  if (text.empty()) return std::nullopt;
  SymbolTable& table = SymbolTable::global();
  PathRef path;
  while (true) {
    const std::size_t slash = text.find('/');
    const std::string_view part = text.substr(0, slash);
    const std::size_t dot = part.rfind('.');
    if (dot == std::string_view::npos || dot == 0) return std::nullopt;
    const auto index = parse_int(part.substr(dot + 1));
    if (!index || *index < 0) return std::nullopt;
    path.push(table.intern(part.substr(0, dot)), *index);
    if (slash == std::string_view::npos) return path;
    text.remove_prefix(slash + 1);
  }
}

}  // namespace g10::trace

#include "grade10/model/execution_model.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace g10::core {

PhaseTypeId ExecutionModel::add_root(std::string name) {
  G10_CHECK_MSG(types_.empty(), "execution model already has a root");
  symbols_.push_back(trace::SymbolTable::global().intern(name));
  PhaseType root;
  root.name = std::move(name);
  types_.push_back(std::move(root));
  return 0;
}

PhaseTypeId ExecutionModel::add_child(PhaseTypeId parent, std::string name,
                                      bool repeated) {
  G10_CHECK(parent >= 0 && static_cast<std::size_t>(parent) < types_.size());
  G10_CHECK_MSG(find(name) == kNoPhaseType,
                "duplicate phase type name: " << name);
  symbols_.push_back(trace::SymbolTable::global().intern(name));
  const auto id = static_cast<PhaseTypeId>(types_.size());
  PhaseType type;
  type.name = std::move(name);
  type.parent = parent;
  type.repeated = repeated;
  types_.push_back(std::move(type));
  types_[static_cast<std::size_t>(parent)].children.push_back(id);
  return id;
}

void ExecutionModel::add_order(PhaseTypeId before, PhaseTypeId after) {
  G10_CHECK(before >= 0 && static_cast<std::size_t>(before) < types_.size());
  G10_CHECK(after >= 0 && static_cast<std::size_t>(after) < types_.size());
  G10_CHECK_MSG(types_[static_cast<std::size_t>(before)].parent ==
                    types_[static_cast<std::size_t>(after)].parent,
                "order edges must connect siblings");
  G10_CHECK(before != after);
  types_[static_cast<std::size_t>(before)].successors.push_back(after);
  types_[static_cast<std::size_t>(after)].predecessors.push_back(before);
}

void ExecutionModel::set_concurrency_limit(PhaseTypeId type, int limit) {
  G10_CHECK(type >= 0 && static_cast<std::size_t>(type) < types_.size());
  G10_CHECK(limit >= 0);
  types_[static_cast<std::size_t>(type)].concurrency_limit = limit;
}

void ExecutionModel::set_wait(PhaseTypeId type, bool wait) {
  G10_CHECK(type >= 0 && static_cast<std::size_t>(type) < types_.size());
  types_[static_cast<std::size_t>(type)].wait = wait;
}

const PhaseType& ExecutionModel::type(PhaseTypeId id) const {
  G10_CHECK(id >= 0 && static_cast<std::size_t>(id) < types_.size());
  return types_[static_cast<std::size_t>(id)];
}

PhaseTypeId ExecutionModel::find(trace::Symbol name) const {
  for (std::size_t i = 0; i < symbols_.size(); ++i) {
    if (symbols_[i] == name) return static_cast<PhaseTypeId>(i);
  }
  return kNoPhaseType;
}

PhaseTypeId ExecutionModel::find(std::string_view name) const {
  return find(trace::SymbolTable::global().intern(name));
}

void ExecutionModel::validate() const {
  G10_CHECK_MSG(!types_.empty(), "execution model is empty");
  G10_CHECK(types_.front().parent == kNoPhaseType);
  for (std::size_t i = 1; i < types_.size(); ++i) {
    G10_CHECK_MSG(types_[i].parent != kNoPhaseType,
                  "multiple roots in execution model");
  }
  // Sibling order must be acyclic: Kahn's algorithm per sibling group.
  for (const auto& parent : types_) {
    const auto& group = parent.children;
    if (group.size() < 2) continue;
    std::vector<int> indegree(group.size(), 0);
    const auto local = [&](PhaseTypeId id) {
      const auto it = std::find(group.begin(), group.end(), id);
      return it == group.end()
                 ? static_cast<std::size_t>(-1)
                 : static_cast<std::size_t>(it - group.begin());
    };
    for (std::size_t gi = 0; gi < group.size(); ++gi) {
      for (PhaseTypeId succ : type(group[gi]).successors) {
        const std::size_t li = local(succ);
        G10_CHECK(li != static_cast<std::size_t>(-1));
        ++indegree[li];
      }
    }
    std::vector<std::size_t> ready;
    for (std::size_t gi = 0; gi < group.size(); ++gi) {
      if (indegree[gi] == 0) ready.push_back(gi);
    }
    std::size_t seen = 0;
    while (!ready.empty()) {
      const std::size_t gi = ready.back();
      ready.pop_back();
      ++seen;
      for (PhaseTypeId succ : type(group[gi]).successors) {
        const std::size_t li = local(succ);
        if (--indegree[li] == 0) ready.push_back(li);
      }
    }
    G10_CHECK_MSG(seen == group.size(),
                  "cycle in sibling order under type " << parent.name);
  }
}

}  // namespace g10::core

#include "grade10/model/resource_model.hpp"

#include "common/check.hpp"

namespace g10::core {

ResourceId ResourceModel::add(Resource resource) {
  G10_CHECK_MSG(find(resource.name) == kNoResource,
                "duplicate resource name: " << resource.name);
  symbols_.push_back(trace::SymbolTable::global().intern(resource.name));
  resources_.push_back(std::move(resource));
  return static_cast<ResourceId>(resources_.size() - 1);
}

ResourceId ResourceModel::add_consumable(std::string name, double capacity,
                                         ResourceScope scope) {
  G10_CHECK_MSG(capacity > 0.0, "consumable resources need a capacity");
  Resource r;
  r.name = std::move(name);
  r.kind = ResourceKind::kConsumable;
  r.scope = scope;
  r.capacity = capacity;
  return add(std::move(r));
}

ResourceId ResourceModel::add_blocking(std::string name, ResourceScope scope) {
  Resource r;
  r.name = std::move(name);
  r.kind = ResourceKind::kBlocking;
  r.scope = scope;
  return add(std::move(r));
}

ResourceId ResourceModel::find(trace::Symbol name) const {
  for (std::size_t i = 0; i < symbols_.size(); ++i) {
    if (symbols_[i] == name) return static_cast<ResourceId>(i);
  }
  return kNoResource;
}

ResourceId ResourceModel::find(std::string_view name) const {
  return find(trace::SymbolTable::global().intern(name));
}

const Resource& ResourceModel::resource(ResourceId id) const {
  G10_CHECK(id >= 0 && static_cast<std::size_t>(id) < resources_.size());
  return resources_[static_cast<std::size_t>(id)];
}

std::vector<ResourceId> ResourceModel::consumables() const {
  std::vector<ResourceId> out;
  for (std::size_t i = 0; i < resources_.size(); ++i) {
    if (resources_[i].kind == ResourceKind::kConsumable) {
      out.push_back(static_cast<ResourceId>(i));
    }
  }
  return out;
}

std::vector<ResourceId> ResourceModel::blockings() const {
  std::vector<ResourceId> out;
  for (std::size_t i = 0; i < resources_.size(); ++i) {
    if (resources_[i].kind == ResourceKind::kBlocking) {
      out.push_back(static_cast<ResourceId>(i));
    }
  }
  return out;
}

}  // namespace g10::core

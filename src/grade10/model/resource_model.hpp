// Resource model (paper §III-B): the hardware and software resources of the
// system under test, in two archetypes — consumable resources with a finite
// capacity (CPU cores, network bandwidth) and blocking resources that stall
// a phase while unavailable (GC, bounded queues, locks).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace/symbol_table.hpp"

namespace g10::core {

using ResourceId = std::int32_t;
inline constexpr ResourceId kNoResource = -1;

enum class ResourceKind { kConsumable, kBlocking };

/// Whether the resource exists once per machine (CPU, NIC) or once in the
/// whole system (e.g. a shared lock service).
enum class ResourceScope { kPerMachine, kGlobal };

struct Resource {
  std::string name;
  ResourceKind kind = ResourceKind::kConsumable;
  ResourceScope scope = ResourceScope::kPerMachine;
  /// Capacity in the resource's own units (cores, bytes/s). Blocking
  /// resources have no capacity.
  double capacity = 0.0;
};

class ResourceModel {
 public:
  ResourceId add_consumable(std::string name, double capacity,
                            ResourceScope scope = ResourceScope::kPerMachine);
  ResourceId add_blocking(std::string name,
                          ResourceScope scope = ResourceScope::kPerMachine);

  /// Looks a resource up by its interned name; kNoResource if absent.
  ResourceId find(trace::Symbol name) const;
  /// Interns `name`, then as above.
  ResourceId find(std::string_view name) const;
  const Resource& resource(ResourceId id) const;
  std::size_t resource_count() const { return resources_.size(); }

  std::vector<ResourceId> consumables() const;
  std::vector<ResourceId> blockings() const;

 private:
  ResourceId add(Resource resource);
  std::vector<Resource> resources_;
  std::vector<trace::Symbol> symbols_;  ///< interned names, by ResourceId
};

}  // namespace g10::core

#include "grade10/model/resource_model.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace g10::core {
namespace {

TEST(ResourceModelTest, AddAndFind) {
  ResourceModel m;
  const ResourceId cpu = m.add_consumable("cpu", 8.0);
  const ResourceId gc = m.add_blocking("GC");
  EXPECT_EQ(m.resource_count(), 2u);
  EXPECT_EQ(m.find("cpu"), cpu);
  EXPECT_EQ(m.find("GC"), gc);
  EXPECT_EQ(m.find("nope"), kNoResource);
  EXPECT_EQ(m.resource(cpu).kind, ResourceKind::kConsumable);
  EXPECT_DOUBLE_EQ(m.resource(cpu).capacity, 8.0);
  EXPECT_EQ(m.resource(gc).kind, ResourceKind::kBlocking);
}

TEST(ResourceModelTest, FindBySymbol) {
  trace::SymbolTable& symbols = trace::SymbolTable::global();
  ResourceModel m;
  const ResourceId cpu = m.add_consumable("cpu", 8.0);
  const ResourceId gc = m.add_blocking("GC");
  EXPECT_EQ(m.find(symbols.intern("cpu")), cpu);
  EXPECT_EQ(m.find(symbols.intern("GC")), gc);
  // Interned names this model does not declare (lookups are exact).
  EXPECT_EQ(m.find(symbols.intern("network")), kNoResource);
  EXPECT_EQ(m.find(symbols.intern("gc")), kNoResource);
}

TEST(ResourceModelTest, ScopesDefaultPerMachine) {
  ResourceModel m;
  const ResourceId cpu = m.add_consumable("cpu", 2.0);
  const ResourceId lock =
      m.add_blocking("lock", ResourceScope::kGlobal);
  EXPECT_EQ(m.resource(cpu).scope, ResourceScope::kPerMachine);
  EXPECT_EQ(m.resource(lock).scope, ResourceScope::kGlobal);
}

TEST(ResourceModelTest, RejectsDuplicatesAndBadCapacity) {
  ResourceModel m;
  m.add_consumable("cpu", 1.0);
  EXPECT_THROW(m.add_consumable("cpu", 2.0), CheckError);
  EXPECT_THROW(m.add_blocking("cpu"), CheckError);
  EXPECT_THROW(m.add_consumable("x", 0.0), CheckError);
}

TEST(ResourceModelTest, KindFilters) {
  ResourceModel m;
  m.add_consumable("cpu", 1.0);
  m.add_blocking("GC");
  m.add_consumable("net", 10.0);
  EXPECT_EQ(m.consumables().size(), 2u);
  EXPECT_EQ(m.blockings().size(), 1u);
}

}  // namespace
}  // namespace g10::core

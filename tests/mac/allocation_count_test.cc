// Heap allocations of a collection's start-up and teardown, counted by a
// replacement operator new/delete that only this test binary links.
//
// A sweep cell constructs a CollectionMac, seeds its first snapshot and
// destroys the MAC again, thousands of times per sweep. Binding the 2n
// agent timers, joining the sensing grid and queueing each producer's
// packet must not allocate per node. The counts are exact functions of
// the scenario, so the test compares them at n = 500 and n = 2,000.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "core/scenario.h"
#include "graph/cds_tree.h"
#include "mac/collection_mac.h"
#include "pu/primary_network.h"
#include "sim/simulator.h"

namespace {

// Calls since the process started. gtest runs the test body on one
// thread, and nothing else runs while a window is open.
std::int64_t g_allocations = 0;
std::int64_t g_frees = 0;

void* CountedAlloc(std::size_t size) {
  ++g_allocations;
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}

void CountedFree(void* block) {
  if (block != nullptr) ++g_frees;
  std::free(block);
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* block) noexcept { CountedFree(block); }
void operator delete[](void* block) noexcept { CountedFree(block); }
void operator delete(void* block, std::size_t) noexcept { CountedFree(block); }
void operator delete[](void* block, std::size_t) noexcept { CountedFree(block); }

namespace crn::mac {
namespace {

struct Window {
  std::int64_t allocations = 0;
  std::int64_t frees = 0;
};

class Counter {
 public:
  Counter() : allocations_(g_allocations), frees_(g_frees) {}
  [[nodiscard]] Window Read() const {
    return {g_allocations - allocations_, g_frees - frees_};
  }

 private:
  std::int64_t allocations_;
  std::int64_t frees_;
};

struct CellCounts {
  std::int32_t nodes = 0;
  Window construct;  // the CollectionMac constructor
  Window seed;       // StartSnapshotCollection and the events at t = 0
  Window teardown;   // the MAC's destructor
};

// One sweep-style cell on the ScaledDefaults(scale) deployment, with every
// input the MAC copies or moves made before the first window opens.
CellCounts CountCell(double scale) {
  core::ScenarioConfig config = core::ScenarioConfig::ScaledDefaults(scale);
  config.seed = 7;
  const core::Scenario scenario(config, 0);
  const graph::CdsTree& tree = scenario.collection_tree();
  std::vector<NodeId> next_hop(static_cast<std::size_t>(tree.node_count()), scenario.sink());
  for (NodeId v = 0; v < tree.node_count(); ++v) {
    if (v != scenario.sink()) next_hop[static_cast<std::size_t>(v)] = tree.parent(v);
  }
  MacConfig mac_config;
  mac_config.pcr = scenario.pcr();
  mac_config.audit_stride = 0;
  std::shared_ptr<const PuSensingTable> table =
      scenario.prefab()->SensingTable(mac_config.pcr);
  std::vector<geom::Vec2> positions = scenario.su_positions();
  const Rng rng = scenario.MakeRunRng().Stream("mac");

  sim::Simulator simulator;
  pu::PrimaryNetwork primary = scenario.MakePrimaryNetwork();
  std::optional<CollectionMac> mac;
  CellCounts counts;
  counts.nodes = static_cast<std::int32_t>(positions.size());
  {
    const Counter counter;
    mac.emplace(simulator, primary, std::move(positions), scenario.area(),
                scenario.sink(), std::move(next_hop), mac_config, rng, std::move(table));
    counts.construct = counter.Read();
  }
  {
    const Counter counter;
    mac->StartSnapshotCollection();
    simulator.RunUntil(0);
    counts.seed = counter.Read();
  }
  EXPECT_EQ(mac->stats().packets_seeded, counts.nodes - 1);
  {
    const Counter counter;
    mac.reset();
    counts.teardown = counter.Read();
  }
  return counts;
}

// Per-node work must add no allocation: between n = 500 and n = 2,000 a
// phase may grow only by this many (the timer arena's pages, one per 256
// slots, and the page table's growth).
constexpr std::int64_t kGrowthAllowance = 24;

TEST(AllocationCountTest, CellStartAndTeardownAllocateIndependentlyOfN) {
  const CellCounts small = CountCell(0.25);
  const CellCounts large = CountCell(1.0);
  ASSERT_EQ(small.nodes, 501);
  ASSERT_EQ(large.nodes, 2001);
  const auto report = [&] {
    return ::testing::Message()
           << "n=" << small.nodes << "/" << large.nodes << ": construct "
           << small.construct.allocations << "/" << large.construct.allocations
           << ", seed " << small.seed.allocations << "/" << large.seed.allocations
           << ", teardown frees " << small.teardown.frees << "/"
           << large.teardown.frees;
  };
  // 2n agent timers bind under registered kinds into paged slots.
  EXPECT_LE(large.construct.allocations - small.construct.allocations, kGrowthAllowance)
      << report();
  // Seeding starts a contention at every producer: each joins the sensing
  // grid (a fixed-capacity CSR) and queues one packet (inline in its
  // Fifo), allocating nothing. What the window still allocates is the
  // scheduler's: its calendar buckets, which follow the queue's bucket
  // count, not the node count — well under one per 16 nodes.
  EXPECT_LT(16 * large.seed.allocations, large.nodes) << report();
  EXPECT_LT(16 * (large.seed.allocations - small.seed.allocations),
            large.nodes - small.nodes)
      << report();
  // Teardown frees what construction and seeding allocated, no more.
  EXPECT_EQ(large.teardown.allocations, 0) << report();
  EXPECT_LE(large.teardown.frees - small.teardown.frees, kGrowthAllowance) << report();
  std::cout << "[ counts   ] " << report() << "\n";
}

}  // namespace
}  // namespace crn::mac

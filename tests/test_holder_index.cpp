// HolderIndex tests: bookkeeping correctness and nearest-replica queries
// cross-checked against a brute-force oracle over random configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include "core/holder_index.hpp"
#include "topology/pop_topology.hpp"

namespace {

using namespace idicn;
using core::HolderIndex;
using topology::GlobalNodeId;

topology::HierarchicalNetwork test_network() {
  return topology::HierarchicalNetwork(topology::make_abilene(),
                                       topology::AccessTreeShape(2, 3));
}

TEST(HolderIndex, AddRemoveHolds) {
  const auto net = test_network();
  HolderIndex index(net);
  const GlobalNodeId n1 = net.leaf(0, 0);
  const GlobalNodeId n2 = net.leaf(5, 3);
  index.add(42, n1);
  index.add(42, n2);
  EXPECT_TRUE(index.holds(42, n1));
  EXPECT_TRUE(index.holds(42, n2));
  EXPECT_FALSE(index.holds(42, net.leaf(0, 1)));
  EXPECT_FALSE(index.holds(43, n1));
  EXPECT_EQ(index.size(), 2u);

  index.remove(42, n1);
  EXPECT_FALSE(index.holds(42, n1));
  EXPECT_TRUE(index.holds(42, n2));
  EXPECT_EQ(index.size(), 1u);
}

TEST(HolderIndex, RemoveUnknownThrows) {
  const auto net = test_network();
  HolderIndex index(net);
  EXPECT_THROW(index.remove(1, net.leaf(0, 0)), std::logic_error);
  index.add(1, net.leaf(0, 0));
  EXPECT_THROW(index.remove(1, net.leaf(0, 1)), std::logic_error);
}

TEST(HolderIndex, DuplicateAddThrowsAndLeavesIndexUnchanged) {
  const auto net = test_network();
  HolderIndex index(net);
  index.add(3, net.leaf(4, 1));
  EXPECT_THROW(index.add(3, net.leaf(4, 1)), std::logic_error);
  // An object id above any seen so far: the first add grows the index, the
  // second is still caught as a duplicate.
  index.add(5000, net.pop_root(2));
  EXPECT_THROW(index.add(5000, net.pop_root(2)), std::logic_error);
  EXPECT_EQ(index.size(), 2u);
  EXPECT_TRUE(index.holds(3, net.leaf(4, 1)));
  EXPECT_TRUE(index.holds(5000, net.pop_root(2)));
}

TEST(HolderIndex, AbsentRemoveThrowsForUnseenAndUntrackedIds) {
  const auto net = test_network();
  HolderIndex index(net);
  index.add(10, net.leaf(1, 0));
  EXPECT_THROW(index.remove(10'000, net.leaf(1, 0)), std::logic_error);  // above any seen
  EXPECT_THROW(index.remove(9, net.leaf(1, 0)), std::logic_error);       // seen range, no holder
  EXPECT_THROW(index.remove(10, net.leaf(2, 0)), std::logic_error);      // other PoP
  EXPECT_THROW(index.remove(10, net.leaf(1, 1)), std::logic_error);      // same PoP, other node
  index.remove(10, net.leaf(1, 0));
  EXPECT_THROW(index.remove(10, net.leaf(1, 0)), std::logic_error);      // already removed
  EXPECT_EQ(index.size(), 0u);
}

TEST(HolderIndex, HoldsIsFalseForUnseenIds) {
  const auto net = test_network();
  HolderIndex index(net);
  EXPECT_FALSE(index.holds(0, net.leaf(0, 0)));
  index.add(2, net.leaf(0, 0));
  EXPECT_FALSE(index.holds(1, net.leaf(0, 0)));
  EXPECT_FALSE(index.holds(3, net.leaf(0, 0)));
  EXPECT_FALSE(index.holds(0xfffffff0u, net.leaf(0, 0)));
  EXPECT_FALSE(index.nearest(0xfffffff0u, net.leaf(0, 0)).has_value());
  EXPECT_TRUE(index.candidates_by_cost(0xfffffff0u, net.leaf(0, 0)).empty());
}

TEST(HolderIndex, SizeTracksAddsAndRemoves) {
  const auto net = test_network();
  HolderIndex index(net);
  std::vector<std::pair<std::uint32_t, GlobalNodeId>> held;
  std::mt19937_64 rng(5);
  for (int step = 0; step < 2000; ++step) {
    const auto object = static_cast<std::uint32_t>(rng() % 40);
    const auto node = static_cast<GlobalNodeId>(rng() % net.node_count());
    const auto it = std::find(held.begin(), held.end(), std::pair{object, node});
    if (it == held.end()) {
      EXPECT_FALSE(index.holds(object, node));
      index.add(object, node);
      held.emplace_back(object, node);
    } else {
      EXPECT_TRUE(index.holds(object, node));
      index.remove(object, node);
      held.erase(it);
    }
    ASSERT_EQ(index.size(), held.size()) << "step " << step;
  }
  for (const auto& [object, node] : held) EXPECT_TRUE(index.holds(object, node));
}

TEST(HolderIndex, NearestEmptyIsNullopt) {
  const auto net = test_network();
  HolderIndex index(net);
  EXPECT_FALSE(index.nearest(7, net.leaf(0, 0)).has_value());
}

TEST(HolderIndex, NearestPrefersOwnLeaf) {
  const auto net = test_network();
  HolderIndex index(net);
  const GlobalNodeId leaf = net.leaf(3, 2);
  index.add(1, net.leaf(9, 0));
  index.add(1, leaf);
  const auto nearest = index.nearest(1, leaf);
  ASSERT_TRUE(nearest.has_value());
  EXPECT_EQ(nearest->node, leaf);
  EXPECT_DOUBLE_EQ(nearest->cost, 0.0);
}

TEST(HolderIndex, NearestCrossPopUsesCoreDistance) {
  const auto net = test_network();
  HolderIndex index(net);
  const GlobalNodeId leaf = net.leaf(0, 0);  // Seattle
  // Holder at Sunnyvale's root (1 core hop) vs a deep node in NY (far).
  index.add(5, net.pop_root(1));
  index.add(5, net.leaf(10, 7));
  const auto nearest = index.nearest(5, leaf);
  ASSERT_TRUE(nearest.has_value());
  EXPECT_EQ(nearest->node, net.pop_root(1));
  EXPECT_DOUBLE_EQ(nearest->cost, 3.0 + 1.0);
}

TEST(HolderIndex, NearestMatchesBruteForceOnRandomConfigurations) {
  const auto net = test_network();
  std::mt19937_64 rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    HolderIndex index(net);
    std::vector<GlobalNodeId> holders;
    const int holder_count = 1 + static_cast<int>(rng() % 30);
    for (int i = 0; i < holder_count; ++i) {
      const GlobalNodeId node = static_cast<GlobalNodeId>(rng() % net.node_count());
      if (index.holds(9, node)) continue;
      index.add(9, node);
      holders.push_back(node);
    }
    const GlobalNodeId leaf =
        net.leaf(static_cast<topology::PopId>(rng() % net.pop_count()),
                 static_cast<std::uint32_t>(rng() % net.tree().leaf_count()));

    // Brute force: min over all holders by (distance, node id).
    double best_cost = 1e18;
    GlobalNodeId best_node = 0;
    for (const GlobalNodeId h : holders) {
      const double cost = net.distance(leaf, h);
      if (cost < best_cost || (cost == best_cost && h < best_node)) {
        best_cost = cost;
        best_node = h;
      }
    }
    const auto nearest = index.nearest(9, leaf);
    ASSERT_TRUE(nearest.has_value());
    EXPECT_DOUBLE_EQ(nearest->cost, best_cost) << "trial " << trial;
    EXPECT_EQ(nearest->node, best_node) << "trial " << trial;
  }
}

TEST(HolderIndex, CandidatesSortedByCost) {
  const auto net = test_network();
  HolderIndex index(net);
  const GlobalNodeId leaf = net.leaf(0, 0);
  index.add(3, net.leaf(10, 1));
  index.add(3, net.pop_root(0));
  index.add(3, net.leaf(0, 1));
  const auto candidates = index.candidates_by_cost(3, leaf);
  ASSERT_EQ(candidates.size(), 3u);
  for (std::size_t i = 0; i + 1 < candidates.size(); ++i) {
    EXPECT_LE(candidates[i].cost, candidates[i + 1].cost);
  }
  // Each candidate's cost must equal the true network distance.
  for (const auto& c : candidates) {
    EXPECT_DOUBLE_EQ(c.cost, net.distance(leaf, c.node));
  }
}

TEST(HolderIndex, RemoveLastHolderOfLastPopErasesObject) {
  const auto net = test_network();
  HolderIndex index(net);
  index.add(8, net.leaf(2, 2));
  index.remove(8, net.leaf(2, 2));
  EXPECT_EQ(index.size(), 0u);
  EXPECT_FALSE(index.nearest(8, net.leaf(2, 2)).has_value());
  // Re-adding works after full erasure.
  index.add(8, net.leaf(2, 3));
  EXPECT_TRUE(index.holds(8, net.leaf(2, 3)));
}

}  // namespace

// Allocation ratchet for the request-level simulator: count real
// operator-new calls over one ICN-NR Simulator::run (prefill included) on
// Sprint and bound the count per replayed request, the way
// tests/test_hot_path_allocs.cpp bounds the runtime's cache-hit chain.
//
// Where the 94k allocations of the current count go: prefill ~62k (the
// holder-index buckets and cache tables growing to their working size) and
// ~32k for holder-index buckets that open or grow during the replay when
// an object gains a holder in a PoP. Response paths cost nothing: the
// Simulator refills one buffer through HierarchicalNetwork::path.
//
// History of the measured number (this world, libstdc++ 12):
//   node-based indexes (LruCache over std::unordered_map, HolderIndex with
//   a std::unordered_set membership hash and std::unordered_map buckets):
//   37.74 allocations/request;
//   flat indexes (FlatIndex in every cache policy, HolderIndex as a
//   vector by object id with binary-searched buckets): 7.07;
//   one reused response-path buffer (HierarchicalNetwork::path fills the
//   Simulator's vector instead of building 3-4 temporaries): 4.70.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "core/bound_workload.hpp"
#include "core/design.hpp"
#include "core/origin_map.hpp"
#include "core/simulator.hpp"
#include "topology/pop_topology.hpp"

#include "counting_new.hpp"

namespace {

using namespace idicn;

// The ratcheted bound, in allocations per replayed request: the measured
// 4.70 plus 0.5 of slack for stdlib variance across CI images, not for
// regressions. Lower it when you lower the count — it must never go back
// up.
constexpr double kAllocsPerRequestRatchet = 5.2;

TEST(SimAllocs, IcnNrRunAllocationsStayUnderRatchet) {
  const topology::HierarchicalNetwork network(topology::make_topology("Sprint"),
                                              topology::AccessTreeShape(2, 5));
  core::SyntheticWorkloadSpec spec;
  spec.request_count = 20'000;
  spec.object_count = 2'000;
  spec.alpha = 1.04;
  spec.seed = 7;
  const core::BoundWorkload workload = core::bind_synthetic(network, spec);
  const core::OriginMap origins(network, spec.object_count,
                                core::OriginAssignment::PopulationProportional, 8);
  core::Simulator simulator(network, origins, core::icn_nr(), core::SimulationConfig{});

  const std::uint64_t before = allocation_count();
  const core::SimulationMetrics metrics = simulator.run(workload);
  const std::uint64_t allocations = allocation_count() - before;
  ASSERT_GT(metrics.request_count, 0u);

  const double per_request =
      static_cast<double>(allocations) / static_cast<double>(workload.requests.size());
  RecordProperty("sim_allocs_total", static_cast<int>(allocations));
  std::printf("[sim] allocations over one ICN-NR run: %llu, %.2f per request "
              "(ratchet %.2f)\n",
              static_cast<unsigned long long>(allocations), per_request,
              kAllocsPerRequestRatchet);
  EXPECT_GT(allocations, 0u) << "a zero count means the counting hook is not "
                                "linked in — the ratchet would be vacuous";
  EXPECT_LE(per_request, kAllocsPerRequestRatchet)
      << "the simulator allocates more per request than the ratcheted bound; "
         "find the new allocation and remove it before touching the bound "
         "(and then only downward)";
}

}  // namespace

// Serial BFS over G(C) (analysis/explore.h): the state cap and run-to-run
// determinism. Node ids, parents and successor lists must not depend on
// anything but the root -- in particular not on the addresses a fresh
// System's automata land at -- so repeated runs on freshly built systems
// produce bit-for-bit the same graph.
#include "analysis/explore.h"

#include <gtest/gtest.h>

#include "analysis/bivalence.h"
#include "processes/relay_consensus.h"

namespace boosting::analysis {
namespace {

using processes::buildRelayConsensusSystem;
using processes::RelaySystemSpec;

std::unique_ptr<ioa::System> relay(int n, int f) {
  RelaySystemSpec spec;
  spec.processCount = n;
  spec.objectResilience = f;
  spec.addScratchRegister = false;
  return buildRelayConsensusSystem(spec);
}

// Bit-for-bit graph equality: same node count, the same state behind every
// node id, the same first-discovery parent chains (via pathTo), and the
// same cached successor lists.
void expectSameGraph(StateGraph& a, StateGraph& b) {
  ASSERT_EQ(a.size(), b.size());
  for (NodeId id = 0; id < a.size(); ++id) {
    ASSERT_TRUE(a.state(id).equals(b.state(id)))
        << "state mismatch at node " << id;
    const auto ea = a.cachedSuccessors(id);
    const auto eb = b.cachedSuccessors(id);
    ASSERT_EQ(ea.has_value(), eb.has_value()) << "cache mismatch at " << id;
    if (!ea) continue;
    ASSERT_EQ(ea->size(), eb->size()) << "fan-out mismatch at " << id;
    for (std::size_t k = 0; k < ea->size(); ++k) {
      EXPECT_EQ((*ea)[k].task, (*eb)[k].task) << "edge task at " << id;
      EXPECT_EQ((*ea)[k].to, (*eb)[k].to) << "edge target at " << id;
    }
    auto pa = a.pathTo(id);
    auto pb = b.pathTo(id);
    ASSERT_EQ(pa.size(), pb.size()) << "witness path length at " << id;
    for (std::size_t k = 0; k < pa.size(); ++k) {
      EXPECT_EQ(pa[k].task, pb[k].task);
      EXPECT_EQ(pa[k].to, pb[k].to);
    }
  }
}

TEST(Explore, RepeatedRunsAreDeterministic) {
  auto sys0 = relay(3, 0);
  StateGraph g0(*sys0);
  NodeId root0 = g0.intern(canonicalInitialization(*sys0, 1));
  const ExploreStats stats0 = exploreReachable(g0, root0);
  EXPECT_EQ(stats0.statesDiscovered, g0.size());
  EXPECT_FALSE(stats0.truncated);
  for (int run = 0; run < 5; ++run) {
    auto sys = relay(3, 0);
    StateGraph g(*sys);
    NodeId root = g.intern(canonicalInitialization(*sys, 1));
    ASSERT_EQ(root, root0);
    const ExploreStats stats = exploreReachable(g, root);
    EXPECT_EQ(stats.statesDiscovered, stats0.statesDiscovered) << "run " << run;
    EXPECT_EQ(stats.edgesComputed, stats0.edgesComputed) << "run " << run;
    expectSameGraph(g0, g);
  }
}

TEST(Explore, SerialMaxStatesAlsoTruncates) {
  auto sys = relay(3, 0);
  StateGraph g(*sys);
  NodeId root = g.intern(canonicalInitialization(*sys, 1));
  ExplorationPolicy policy;
  policy.maxStates = 50;
  auto stats = exploreReachable(g, root, policy);
  EXPECT_TRUE(stats.truncated);
  EXPECT_GE(stats.statesDiscovered, 50u);
  // The graph holds exactly the discovered states; truncated frontier
  // leaves have no cached successors.
  EXPECT_EQ(g.size(), stats.statesDiscovered);
  bool someLeaf = false;
  for (NodeId id = 0; id < g.size(); ++id) {
    if (!g.cachedSuccessors(id)) someLeaf = true;
  }
  EXPECT_TRUE(someLeaf);
}

}  // namespace
}  // namespace boosting::analysis

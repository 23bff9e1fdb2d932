// Brute-force oracle for the POR engine on the n=3 relay fixture: the
// FULL reachable graph (no reduction anywhere) is small enough to compute
// exactly, so every claim the reduced exploration makes can be checked
// against ground truth state by state:
//   * every state the reduced BFS visits is genuinely reachable (interning
//     it into the full graph never creates a node);
//   * the valence the reduced analyzer assigns to a shared state equals
//     the full analyzer's valence of that exact state -- stubborn sets
//     plus the cycle proviso preserve decide reachability per node, not
//     just in aggregate;
//   * the set of valence classes realized by the reduced graph equals the
//     full graph's (the reduction cannot lose e.g. all bivalent states);
//   * hook search agrees: from the same bivalent initialization both
//     engines find a hook, with the same endpoint valences.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "analysis/bivalence.h"
#include "analysis/hook.h"
#include "analysis/por.h"
#include "analysis/state_graph.h"
#include "analysis/valence.h"
#include "processes/relay_consensus.h"

namespace boosting::analysis {
namespace {

std::unique_ptr<ioa::System> relay3() {
  processes::RelaySystemSpec spec;
  spec.processCount = 3;
  spec.objectResilience = 1;
  spec.policy = services::DummyPolicy::PreferDummy;
  return processes::buildRelayConsensusSystem(spec);
}

// BFS every initialization to a fixpoint through `expand`, which is
// either the full or the POR-reduced successor relation.
template <typename ExpandFn>
std::vector<NodeId> exploreAll(StateGraph& g, const ioa::System& sys,
                               ExpandFn expand) {
  std::deque<NodeId> frontier;
  std::vector<char> queued;
  auto enqueue = [&](NodeId id) {
    if (id >= queued.size()) queued.resize(id + 1, 0);
    if (queued[id]) return;
    queued[id] = 1;
    frontier.push_back(id);
  };
  for (int ones = 0; ones <= sys.processCount(); ++ones) {
    enqueue(g.intern(canonicalInitialization(sys, ones)));
  }
  std::vector<NodeId> visited;
  while (!frontier.empty()) {
    const NodeId id = frontier.front();
    frontier.pop_front();
    visited.push_back(id);
    for (const EdgeView e : expand(id)) enqueue(e.to);
  }
  return visited;
}

TEST(PorOracle, ReducedRelayGraphMatchesBruteForce) {
  auto sys = relay3();

  // Ground truth: the complete reachable graph and its valences.
  StateGraph full(*sys);
  ValenceAnalyzer fullVa(full);
  const std::vector<NodeId> fullNodes = exploreAll(
      full, *sys, [&](NodeId id) { return full.successors(id); });
  for (int ones = 0; ones <= sys->processCount(); ++ones) {
    fullVa.explore(full.intern(canonicalInitialization(*sys, ones)));
  }

  // Reduced run: same roots, ample-set successor relation.
  const auto por = PorPolicy::forSystem(*sys, PorMode::Auto);
  ASSERT_FALSE(por->trivial()) << por->disabledReason();
  StateGraph red(*sys, nullptr, por);
  ASSERT_TRUE(red.porActive());
  ValenceAnalyzer redVa(red);
  const std::vector<NodeId> redNodes = exploreAll(
      red, *sys, [&](NodeId id) { return red.exploreSuccessors(id); });
  for (int ones = 0; ones <= sys->processCount(); ++ones) {
    redVa.explore(red.intern(canonicalInitialization(*sys, ones)));
  }

  // The reduction must actually reduce on this fixture.
  EXPECT_LT(red.size(), full.size());
  EXPECT_GT(por->nodesReduced(), 0u);

  // (1) Reduced-reachable is a subset of full-reachable: interning every
  // reduced state into the (already complete) full graph finds it.
  const std::size_t fullSize = full.size();
  std::set<Valence> fullClasses, redClasses;
  for (NodeId id : fullNodes) fullClasses.insert(fullVa.valence(id));
  for (NodeId rid : redNodes) {
    const NodeId fid = full.intern(red.state(rid));
    ASSERT_LT(fid, fullSize)
        << "reduced node " << rid << " is not reachable in the full graph";
    // (2) per-state valence agreement.
    const Valence rv = redVa.valence(rid);
    EXPECT_EQ(rv, fullVa.valence(fid))
        << "valence mismatch at reduced node " << rid << " / full node "
        << fid;
    redClasses.insert(rv);
  }
  EXPECT_EQ(full.size(), fullSize);

  // (3) every valence class survives the reduction.
  EXPECT_EQ(fullClasses, redClasses);

  // (4) hook existence agrees from the shared bivalent initialization.
  BivalenceResult fullBiv = findBivalentInitialization(full, fullVa);
  BivalenceResult redBiv = findBivalentInitialization(red, redVa);
  ASSERT_TRUE(fullBiv.bivalent.has_value());
  ASSERT_TRUE(redBiv.bivalent.has_value());
  EXPECT_EQ(fullBiv.bivalent->onesPrefix, redBiv.bivalent->onesPrefix);
  HookSearchOutcome fullHook = findHook(full, fullVa, fullBiv.bivalent->node);
  HookSearchOutcome redHook = findHook(red, redVa, redBiv.bivalent->node);
  ASSERT_TRUE(fullHook.hook.has_value());
  ASSERT_TRUE(redHook.hook.has_value());
  EXPECT_EQ(fullHook.fairCycle, redHook.fairCycle);
  EXPECT_EQ(fullHook.hook->alpha0Valence, redHook.hook->alpha0Valence);
  EXPECT_EQ(fullHook.hook->alpha1Valence, redHook.hook->alpha1Valence);
  // The reduced engine's hook must be genuine in ITS graph (the walk
  // crosses full-tier edges, so this also exercises the mixed-tier path).
  EXPECT_TRUE(isGenuineHook(red, redVa, *redHook.hook));
}

TEST(PorOracle, ProvisoNeverStrandsAnOpenCycle) {
  // Structural check on the committed reduced graph: every node whose
  // reduced expansion committed a PROPER ample subset has at least one
  // successor that was itself reduced-expanded later (the BFS freshness
  // proviso's post-hoc justification: no ample set can point exclusively
  // back into the closed region).
  auto sys = relay3();
  const auto por = PorPolicy::forSystem(*sys, PorMode::Auto);
  StateGraph red(*sys, nullptr, por);
  ValenceAnalyzer redVa(red);
  const std::vector<NodeId> redNodes = exploreAll(
      red, *sys, [&](NodeId id) { return red.exploreSuccessors(id); });
  std::size_t properCount = 0;
  for (NodeId id : redNodes) {
    const auto cached = red.cachedReducedSuccessors(id);
    ASSERT_TRUE(cached.has_value()) << "node " << id << " never expanded";
    const auto fullEdges = red.successors(id);
    if (cached->size() == fullEdges.size()) continue;  // alias / improper
    ++properCount;
    bool forward = false;
    for (const EdgeView e : *cached) {
      if (e.to != id) forward = true;
    }
    EXPECT_TRUE(forward)
        << "node " << id << " committed an ample set of self-loops only";
  }
  EXPECT_GT(properCount, 0u);
}

}  // namespace
}  // namespace boosting::analysis

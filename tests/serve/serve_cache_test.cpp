// Cross-job caching tests: the warm-memo differential (warm-cache verdicts
// bit-identical to cold, including state counts, action intern indices and
// witness text), memo consistency across a cancelled job, and the
// ServiceContextPool lease/bypass/eviction semantics. The differential
// also runs under the ASan/TSan test targets, which is where a stale
// canonical pointer or an unsynchronized memo handoff would detonate.
#include "serve/cache.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "analysis/adversary.h"
#include "analysis/bivalence.h"
#include "analysis/explore.h"
#include "analysis/state_graph.h"
#include "serve/candidates.h"
#include "serve/scheduler.h"
#include "sim/trace_io.h"

namespace boosting::serve {
namespace {

analysis::AdversaryReport analyze(
    const ioa::System& sys, std::shared_ptr<analysis::AnalysisMemo> memo) {
  analysis::AdversaryConfig cfg;
  cfg.claimedFailures = 2;
  cfg.exemptFailureAware = true;
  cfg.memo = std::move(memo);
  return analysis::analyzeConsensusCandidate(sys, cfg);
}

void expectBitIdentical(const analysis::AdversaryReport& a,
                        const analysis::AdversaryReport& b) {
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_EQ(a.statesExplored, b.statesExplored);
  EXPECT_EQ(a.witnessFailures, b.witnessFailures);
  EXPECT_EQ(sim::renderExecution(a.witness), sim::renderExecution(b.witness));
}

TEST(ServeCache, WarmMemoVerdictBitIdenticalToCold) {
  auto sys = buildCandidateSystem("relay", 3, 1, nullptr);
  ASSERT_NE(sys, nullptr);
  // Cold reference: the legacy private-memo path (cfg.memo == nullptr).
  const auto cold = analyze(*sys, nullptr);
  // Shared memo, used by three consecutive jobs: first fills it, the rest
  // run warm. Every run must be bit-identical to the cold reference.
  auto memo = std::make_shared<analysis::AnalysisMemo>(*sys);
  const auto first = analyze(*sys, memo);
  const std::size_t poolAfterFirst = memo->actionPoolSize();
  const auto second = analyze(*sys, memo);
  const auto third = analyze(*sys, memo);
  expectBitIdentical(cold, first);
  expectBitIdentical(cold, second);
  expectBitIdentical(cold, third);
  // Warm runs re-intern the same actions: the pool must not grow, and the
  // indices handed out are the same first-intern-order indices (otherwise
  // the CompactEdges comparisons above could not have matched).
  EXPECT_EQ(memo->actionPoolSize(), poolAfterFirst);
}

TEST(ServeCache, WarmMemoGraphsMatchNodeForNode) {
  auto sys = buildCandidateSystem("relay", 3, 1, nullptr);
  ASSERT_NE(sys, nullptr);
  analysis::StateGraph cold(*sys);
  const auto coldRoot =
      cold.intern(analysis::canonicalInitialization(*sys, 1));
  analysis::exploreReachable(cold, coldRoot);

  auto memo = std::make_shared<analysis::AnalysisMemo>(*sys);
  for (int round = 0; round < 2; ++round) {
    analysis::StateGraph warm(*sys, nullptr, nullptr, {}, memo);
    const auto warmRoot =
        warm.intern(analysis::canonicalInitialization(*sys, 1));
    analysis::exploreReachable(warm, warmRoot);
    ASSERT_EQ(warm.size(), cold.size()) << "round " << round;
    for (analysis::NodeId n = 0; n < cold.size(); ++n) {
      ASSERT_EQ(warm.state(n), cold.state(n))
          << "node " << n << " diverged in round " << round;
    }
    std::string why;
    EXPECT_TRUE(warm.checkConsistent(&why)) << why;
  }
}

TEST(ServeCache, MemoStaysConsistentAcrossCancelledJob) {
  auto sys = buildCandidateSystem("relay", 3, 1, nullptr);
  ASSERT_NE(sys, nullptr);
  const auto cold = analyze(*sys, nullptr);

  auto memo = std::make_shared<analysis::AnalysisMemo>(*sys);
  // A job cancelled mid-exploration: the hook throws JobCancelled through
  // the engines' abort path, which guarantees graph consistency -- and
  // therefore memo reusability.
  analysis::AdversaryConfig cfg;
  cfg.claimedFailures = 2;
  cfg.exemptFailureAware = true;
  cfg.memo = memo;
  cfg.exploration.expansionHook = [](std::size_t count) {
    if (count > 5) throw JobCancelled();
  };
  EXPECT_THROW(analysis::analyzeConsensusCandidate(*sys, cfg), JobCancelled);
  // The next (uncancelled) job over the same memo must still be
  // bit-identical to cold.
  expectBitIdentical(cold, analyze(*sys, memo));
}

TEST(ServeCache, StateGraphRejectsMemoOfDifferentSystem) {
  auto sysA = buildCandidateSystem("relay", 3, 1, nullptr);
  auto sysB = buildCandidateSystem("relay", 3, 1, nullptr);
  ASSERT_NE(sysA, nullptr);
  ASSERT_NE(sysB, nullptr);
  auto memoA = std::make_shared<analysis::AnalysisMemo>(*sysA);
  // Equal parameters but a DIFFERENT System object: pointer-keyed caches
  // would silently poison, so the graph must refuse up front.
  EXPECT_THROW(
      analysis::StateGraph(*sysB, nullptr, nullptr, {}, memoA),
      std::invalid_argument);
}

TEST(ServeCache, PoolLeasesExclusivelyAndCountsBypasses) {
  ServiceContextPool pool(4);
  const ServiceKey key{"relay", 3, 1, analysis::SymmetryMode::Auto,
                       analysis::PorMode::Auto};
  std::string err;
  auto first = pool.acquire(key, &err);
  ASSERT_TRUE(first.has_value()) << err;
  EXPECT_FALSE(first->warm());
  // Same key while leased: bypass, not a second context.
  auto busy = pool.acquire(key, &err);
  EXPECT_FALSE(busy.has_value());
  EXPECT_TRUE(err.empty());
  first.reset();  // release
  auto second = pool.acquire(key, &err);
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->warm());
  const auto stats = pool.stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.reuses, 1u);
  EXPECT_EQ(stats.bypasses, 1u);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ServeCache, PoolEvictsIdleContextsOverTheCap) {
  ServiceContextPool pool(1);
  std::string err;
  const ServiceKey k1{"relay", 2, 0, analysis::SymmetryMode::Auto,
                      analysis::PorMode::Auto};
  const ServiceKey k2{"relay", 3, 1, analysis::SymmetryMode::Auto,
                      analysis::PorMode::Auto};
  pool.acquire(k1, &err).reset();
  pool.acquire(k2, &err).reset();  // k1 is idle -> evicted
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.stats().evictions, 1u);
  // k1 again: a fresh (cold) build, not a stale context.
  auto again = pool.acquire(k1, &err);
  ASSERT_TRUE(again.has_value());
  EXPECT_FALSE(again->warm());
}

TEST(ServeCache, DisabledPoolNeverBuilds) {
  ServiceContextPool pool(0);
  const ServiceKey key{"relay", 3, 1, analysis::SymmetryMode::Auto,
                       analysis::PorMode::Auto};
  std::string err;
  EXPECT_FALSE(pool.acquire(key, &err).has_value());
  EXPECT_TRUE(err.empty());
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.stats().builds, 0u);
}

TEST(ServeCache, KeySeparatesReductionModes) {
  // Different reduction modes must map to different contexts: their
  // explorations produce different graphs over the same system.
  ServiceContextPool pool(8);
  std::string err;
  const ServiceKey off{"relay", 3, 1, analysis::SymmetryMode::Off,
                       analysis::PorMode::Off};
  const ServiceKey on{"relay", 3, 1, analysis::SymmetryMode::On,
                      analysis::PorMode::On};
  pool.acquire(off, &err).reset();
  pool.acquire(on, &err).reset();
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.stats().builds, 2u);
}

}  // namespace
}  // namespace boosting::serve

// Differential battery for out-of-core exploration (DESIGN.md "Out-of-core
// exploration"): the edge-arena cold tier (Pager) and the frontier spill
// (SpilledFrontier) are STORAGE changes only -- demotion remaps sealed
// chunks read-only at the same address with identical bytes, and the spill
// FIFO preserves pop order exactly -- so a run under a memory budget must
// be bit-identical to the unbounded run: same node ids, same compact edge
// triples, same action intern indices, same witness paths. Three tiers:
//   1. unit tests of the pager (demote preserves contents at the same
//      address, LRU eviction/refault accounting, failure seams are
//      all-or-nothing) and of the spilled frontier (exact FIFO order
//      against a plain-deque oracle under a randomized interleaving);
//   2. graph bit-identity: unbounded vs budgeted runs, with and without
//      symmetry/POR, with chunk geometry and frontier thresholds forced
//      small enough that demotions, evictions, refaults and frontier
//      segments all happen;
//   3. fault injection via the SpillConfig seams: a failing demote or
//      eviction aborts the exploration gracefully (exception propagates,
//      checkConsistent holds), and the
//      dedicated spill directory stays empty throughout -- spill files are
//      unlinked at creation, so nothing can leak.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/bivalence.h"
#include "analysis/explore.h"
#include "analysis/pager.h"
#include "analysis/state_graph.h"
#include "analysis/symmetry.h"
#include "analysis/por.h"
#include "processes/relay_consensus.h"

namespace boosting::analysis {
namespace {

std::unique_ptr<ioa::System> relayFixture(int n, int f) {
  processes::RelaySystemSpec spec;
  spec.processCount = n;
  spec.objectResilience = f;
  spec.policy = services::DummyPolicy::PreferDummy;
  return processes::buildRelayConsensusSystem(spec);
}

// A dedicated spill directory per test so the no-leaked-files property is
// checkable: spill files are unlinked at creation, so the directory must
// be empty at every observable point.
class SpillDir {
 public:
  SpillDir() {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("spill_test_" + std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  ~SpillDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string path() const { return dir_.string(); }
  std::size_t visibleFiles() const {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& e :
         std::filesystem::directory_iterator(dir_)) {
      ++n;
    }
    return n;
  }

 private:
  static inline int counter_ = 0;
  std::filesystem::path dir_;
};

// ---------------------------------------------------------------------------
// Tier 1a: Pager unit tests.

TEST(Pager, DemotePreservesContentsAtTheSameAddress) {
  SpillDir dir;
  Pager::Config cfg;
  cfg.budgetBytes = 1 << 20;
  cfg.chunkBytes = 4096;
  cfg.spillDir = dir.path();
  Pager pager(cfg);
  auto* chunk = static_cast<std::uint32_t*>(pager.allocChunk());
  ASSERT_NE(chunk, nullptr);
  for (std::uint32_t i = 0; i < 1024; ++i) chunk[i] = 0x9e3779b9u * (i + 1);
  const std::uint32_t coldId = pager.demote(chunk);
  EXPECT_EQ(coldId, 0u);
  // Same address, same bytes: every pre-demotion pointer stays valid and
  // reads identical data -- the whole determinism argument.
  for (std::uint32_t i = 0; i < 1024; ++i) {
    ASSERT_EQ(chunk[i], 0x9e3779b9u * (i + 1)) << i;
  }
  EXPECT_EQ(pager.stats().chunksCold, 1u);
  EXPECT_EQ(pager.stats().bytesOnDisk, 4096u);
  EXPECT_EQ(dir.visibleFiles(), 0u) << "spill file must be unlinked";
}

TEST(Pager, LruEvictsOverBudgetAndRefaultsOnTouch) {
  SpillDir dir;
  Pager::Config cfg;
  cfg.budgetBytes = 2 * 4096;  // maxHot = 2 resident cold chunks
  cfg.chunkBytes = 4096;
  cfg.spillDir = dir.path();
  Pager pager(cfg);
  ASSERT_EQ(pager.maxHotChunks(), 2u);
  std::vector<std::uint8_t*> chunks;
  for (int c = 0; c < 4; ++c) {
    auto* p = static_cast<std::uint8_t*>(pager.allocChunk());
    std::memset(p, 0x40 + c, 4096);
    chunks.push_back(p);
    EXPECT_EQ(pager.demote(p), static_cast<std::uint32_t>(c));
  }
  // 4 demoted, budget keeps 2 resident: the 2 oldest were evicted.
  EXPECT_EQ(pager.stats().chunksCold, 4u);
  EXPECT_EQ(pager.stats().evictions, 2u);
  EXPECT_EQ(pager.residentCold(), 2u);
  // Touching an evicted chunk is a fault (and re-evicts the now-coldest);
  // touching a resident one is not. Contents are intact either way.
  const std::uint64_t faultsBefore = pager.stats().faults;
  pager.touchCold(0);  // evicted -> refault
  EXPECT_EQ(pager.stats().faults, faultsBefore + 1);
  pager.touchCold(0);  // now resident -> recency update only
  EXPECT_EQ(pager.stats().faults, faultsBefore + 1);
  for (int c = 0; c < 4; ++c) {
    for (std::size_t i = 0; i < 4096; i += 509) {
      ASSERT_EQ(chunks[c][i], 0x40 + c) << c << "/" << i;
    }
  }
  EXPECT_EQ(dir.visibleFiles(), 0u);
}

TEST(Pager, FailureSeamsThrowAndCountNothing) {
  SpillDir dir;
  {
    Pager::Config cfg;
    cfg.budgetBytes = 1 << 20;
    cfg.chunkBytes = 4096;
    cfg.spillDir = dir.path();
    cfg.failDemoteAfter = 2;  // second demote attempt throws
    Pager pager(cfg);
    void* a = pager.allocChunk();
    void* b = pager.allocChunk();
    EXPECT_EQ(pager.demote(a), 0u);
    EXPECT_THROW(pager.demote(b), std::runtime_error);
    // All-or-nothing: the failed demote moved no counter.
    EXPECT_EQ(pager.stats().chunksCold, 1u);
    EXPECT_EQ(pager.stats().bytesOnDisk, 4096u);
  }
  {
    Pager::Config cfg;
    cfg.budgetBytes = 4096;  // floor maxHot = 2
    cfg.chunkBytes = 4096;
    cfg.spillDir = dir.path();
    cfg.failEvictAfter = 1;  // first eviction attempt throws
    Pager pager(cfg);
    std::vector<void*> chunks;
    for (int c = 0; c < 3; ++c) chunks.push_back(pager.allocChunk());
    EXPECT_EQ(pager.demote(chunks[0]), 0u);
    EXPECT_EQ(pager.demote(chunks[1]), 1u);
    EXPECT_THROW(pager.demote(chunks[2]), std::runtime_error);
    EXPECT_EQ(pager.stats().evictions, 0u);
  }
  EXPECT_EQ(dir.visibleFiles(), 0u) << "aborts must not leak spill files";
}

TEST(Pager, RejectsZeroBudgetOrChunk) {
  EXPECT_THROW(Pager(Pager::Config{}), std::invalid_argument);
  Pager::Config noChunk;
  noChunk.budgetBytes = 4096;
  EXPECT_THROW(Pager{noChunk}, std::invalid_argument);
}

TEST(OpenUnlinkedSpillFile, RejectsUnusableDirectory) {
  EXPECT_THROW(openUnlinkedSpillFile("/nonexistent/spill/dir"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Tier 1b: SpilledFrontier unit tests.

TEST(SpilledFrontier, ExactFifoAgainstDequeOracleUnderInterleaving) {
  SpillDir dir;
  // Tiny threshold/segments so segments constantly move to and from disk.
  SpilledFrontier fifo(/*spillThreshold=*/8, /*segmentEntries=*/4,
                       dir.path());
  std::deque<std::uint64_t> oracle;
  std::mt19937_64 rng(20260808);  // seed logged for replay
  std::uint64_t nextVal = 1;
  for (int step = 0; step < 20000; ++step) {
    const bool push = oracle.empty() || (rng() % 3 != 0);
    if (push) {
      fifo.push(nextVal);
      oracle.push_back(nextVal);
      ++nextVal;
    } else {
      std::uint64_t got = 0;
      ASSERT_TRUE(fifo.pop(&got)) << "step " << step;
      ASSERT_EQ(got, oracle.front()) << "FIFO order broken at step " << step;
      oracle.pop_front();
    }
    ASSERT_EQ(fifo.size(), oracle.size());
  }
  while (!oracle.empty()) {
    std::uint64_t got = 0;
    ASSERT_TRUE(fifo.pop(&got));
    ASSERT_EQ(got, oracle.front());
    oracle.pop_front();
  }
  std::uint64_t got = 0;
  EXPECT_FALSE(fifo.pop(&got));
  EXPECT_GT(fifo.stats().segmentsSpilled, 0u) << "threshold never engaged";
  EXPECT_LE(fifo.stats().segmentsReloaded, fifo.stats().segmentsSpilled);
  EXPECT_EQ(dir.visibleFiles(), 0u);
}

TEST(SpilledFrontier, ThresholdZeroNeverSpills) {
  SpilledFrontier fifo;  // plain in-memory queue
  for (std::uint64_t v = 0; v < 100000; ++v) fifo.push(v);
  for (std::uint64_t v = 0; v < 100000; ++v) {
    std::uint64_t got = 0;
    ASSERT_TRUE(fifo.pop(&got));
    ASSERT_EQ(got, v);
  }
  EXPECT_EQ(fifo.stats().segmentsSpilled, 0u);
  EXPECT_EQ(fifo.diskEntries(), 0u);
}

// ---------------------------------------------------------------------------
// Tier 2: graph bit-identity, unbounded vs budgeted, across the matrix.

enum class Mode { Plain, Sym, SymPor };

const char* modeName(Mode m) {
  switch (m) {
    case Mode::Plain: return "plain";
    case Mode::Sym: return "sym";
    case Mode::SymPor: return "sym+por";
  }
  return "?";
}

struct Explored {
  std::unique_ptr<ioa::System> sys;
  std::unique_ptr<StateGraph> g;
  ExploreStats stats;
};

Explored explore(std::unique_ptr<ioa::System> sys, Mode mode,
                 const ExplorationPolicy& pol, const SpillConfig& spill) {
  Explored r;
  r.sys = std::move(sys);
  std::shared_ptr<const SymmetryPolicy> sym;
  std::shared_ptr<const PorPolicy> por;
  if (mode != Mode::Plain) {
    sym = SymmetryPolicy::forSystem(*r.sys, SymmetryMode::On);
  }
  if (mode == Mode::SymPor) por = PorPolicy::forSystem(*r.sys, PorMode::On);
  r.g = std::make_unique<StateGraph>(*r.sys, sym, por, spill);
  const NodeId root =
      r.g->intern(canonicalInitialization(*r.sys, r.sys->processCount() / 2));
  r.stats = exploreReachable(*r.g, root, pol);
  return r;
}

// Bit-identity of two explored graphs: node numbering, states, compact edge triples, witness paths, and
// the action pool itself. Spilled-vs-unbounded must pass all of it.
void expectGraphsBitIdentical(const StateGraph& gs, const StateGraph& gp,
                              const std::string& label) {
  ASSERT_EQ(gs.size(), gp.size()) << label;
  ASSERT_EQ(gs.actionPoolSize(), gp.actionPoolSize()) << label;
  for (NodeId id = 0; id < gs.size(); ++id) {
    ASSERT_TRUE(gs.state(id).equals(gp.state(id))) << label << " node " << id;
    EXPECT_EQ(gs.rootOf(id), gp.rootOf(id)) << label << " node " << id;
    const auto se = gs.cachedSuccessors(id);
    const auto pe = gp.cachedSuccessors(id);
    ASSERT_EQ(se.has_value(), pe.has_value()) << label << " node " << id;
    if (se) {
      ASSERT_EQ(se->size(), pe->size()) << label << " node " << id;
      for (std::size_t k = 0; k < se->size(); ++k) {
        const CompactEdge& a = se->data()[k];
        const CompactEdge& b = pe->data()[k];
        ASSERT_EQ(a.task, b.task) << label << " node " << id << " edge " << k;
        ASSERT_EQ(a.action, b.action)
            << label << " node " << id << " edge " << k;
        ASSERT_EQ(a.to, b.to) << label << " node " << id << " edge " << k;
      }
    }
    const auto sp = gs.pathTo(id);
    const auto pp = gp.pathTo(id);
    ASSERT_EQ(sp.size(), pp.size()) << label << " node " << id;
    for (std::size_t k = 0; k < sp.size(); ++k) {
      ASSERT_EQ(sp[k].task, pp[k].task) << label << " node " << id;
      ASSERT_EQ(sp[k].action, pp[k].action) << label << " node " << id;
      ASSERT_EQ(sp[k].to, pp[k].to) << label << " node " << id;
    }
  }
  for (std::uint32_t a = 0; a < gs.actionPoolSize(); ++a) {
    ASSERT_EQ(gs.actionAt(a), gp.actionAt(a)) << label << " action " << a;
  }
}

// `expectEvictions` is false only for the sym+por fixture, whose reduced
// graph stays within the two-chunk LRU budget; eviction traffic is covered
// by the other modes and the Pager unit tests.
void runBudgetedVsUnbounded(std::unique_ptr<ioa::System> (*build)(), Mode mode,
                    bool expectEvictions = true) {
  SpillDir dir;
  // Unbounded reference, serial.
  const Explored ref = explore(build(), mode, ExplorationPolicy{}, {});
  ASSERT_GT(ref.g->size(), 0u);
  // Geometry forced small so even the symmetry-reduced fixtures demote,
  // evict and refault: 64-edge chunks (one 4 KiB page each once rounded)
  // with a budget of two resident cold mappings, and a frontier threshold
  // far below the BFS frontier peak.
  SpillConfig spill;
  spill.memoryBudgetBytes = 2 * 4096;
  spill.spillDir = dir.path();
  spill.edgeChunkShift = 6;
  ExplorationPolicy pol;
  pol.memoryBudgetBytes = spill.memoryBudgetBytes;
  pol.frontierSpillThreshold = 64;
  pol.spillDir = dir.path();
  const Explored cell = explore(build(), mode, pol, spill);
  const std::string label = std::string(modeName(mode)) + " budget";
  EXPECT_EQ(ref.stats.statesDiscovered, cell.stats.statesDiscovered)
      << label;
  expectGraphsBitIdentical(*ref.g, *cell.g, label);
  ASSERT_TRUE(cell.g->spillActive()) << label;
  const Pager::Stats ps = cell.g->spillStats();
  EXPECT_GT(ps.chunksCold, 0u) << label << ": cold tier never engaged";
  if (expectEvictions) {
    EXPECT_GT(ps.evictions, 0u) << label << ": budget never forced eviction";
  }
  EXPECT_EQ(dir.visibleFiles(), 0u) << label;
}

std::unique_ptr<ioa::System> relay31() { return relayFixture(3, 1); }

TEST(SpillEquivalence, BitIdenticalRelay31Plain) {
  runBudgetedVsUnbounded(relay31, Mode::Plain);
}

TEST(SpillEquivalence, BitIdenticalRelay31Symmetry) {
  runBudgetedVsUnbounded(relay31, Mode::Sym);
}

TEST(SpillEquivalence, BitIdenticalRelay31SymmetryPor) {
  runBudgetedVsUnbounded(relay31, Mode::SymPor, /*expectEvictions=*/false);
}

TEST(SpillEquivalence, FrontierSpillEngagesAndReportsStats) {
  SpillDir dir;
  ExplorationPolicy pol;
  pol.frontierSpillThreshold = 16;  // far below the BFS frontier peak
  pol.spillDir = dir.path();
  const Explored r = explore(relay31(), Mode::Plain, pol, {});
  EXPECT_GT(r.stats.frontierSpill.segmentsSpilled, 0u);
  EXPECT_LE(r.stats.frontierSpill.segmentsReloaded,
            r.stats.frontierSpill.segmentsSpilled);
  EXPECT_EQ(dir.visibleFiles(), 0u);
}

// ---------------------------------------------------------------------------
// Tier 3: fault injection through the SpillConfig seams.

TEST(SpillFaultInjection, FailingDemoteAbortsSerialExplorationCleanly) {
  SpillDir dir;
  auto sys = relayFixture(3, 1);
  SpillConfig spill;
  spill.memoryBudgetBytes = 2 * 4096;
  spill.spillDir = dir.path();
  spill.edgeChunkShift = 8;
  spill.failDemoteAfter = 3;
  StateGraph g(*sys, nullptr, nullptr, spill);
  const NodeId root = g.intern(canonicalInitialization(*sys, 1));
  EXPECT_THROW(exploreReachable(g, root, {}), std::runtime_error);
  // The failed demote committed nothing: the graph self-checks clean and
  // remains usable in its pre-failure extent.
  EXPECT_TRUE(g.checkConsistent());
  EXPECT_EQ(g.spillStats().chunksCold, 2u);
  EXPECT_EQ(dir.visibleFiles(), 0u);
}

TEST(SpillFaultInjection, FailingEvictionAbortsSerialExplorationCleanly) {
  SpillDir dir;
  auto sys = relayFixture(3, 1);
  SpillConfig spill;
  spill.memoryBudgetBytes = 2 * 4096;
  spill.spillDir = dir.path();
  spill.edgeChunkShift = 8;
  spill.failEvictAfter = 1;
  StateGraph g(*sys, nullptr, nullptr, spill);
  const NodeId root = g.intern(canonicalInitialization(*sys, 1));
  EXPECT_THROW(exploreReachable(g, root, {}), std::runtime_error);
  EXPECT_TRUE(g.checkConsistent());
  EXPECT_EQ(dir.visibleFiles(), 0u);
}

TEST(SpillFaultInjection, UnusableSpillDirFailsGraphConstructionEagerly) {
  auto sys = relayFixture(2, 0);
  SpillConfig spill;
  spill.memoryBudgetBytes = 1 << 20;
  spill.spillDir = "/nonexistent/spill/dir";
  EXPECT_THROW(StateGraph(*sys, nullptr, nullptr, spill),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Checked-narrowing regressions: the former comment-only contract
// ("kEdgeChunkCapacity must exceed allTasks().size()") and the unchecked
// uint16_t task-index narrowing are now validated with runtime errors.

TEST(SpillConfigValidation, TaskCountMustFitSixteenBits) {
  EXPECT_THROW(StateGraph::validateTaskCapacity(1u << 16, 1u << 15),
               std::invalid_argument);
  EXPECT_NO_THROW(StateGraph::validateTaskCapacity(65535, 1u << 17));
}

TEST(SpillConfigValidation, ChunkMustHoldOneFullSuccessorList) {
  // taskCount == chunkCapacity cannot hold one full list (a run of
  // allTasks().size() edges must fit a single chunk).
  EXPECT_THROW(StateGraph::validateTaskCapacity(256, 256),
               std::invalid_argument);
  EXPECT_NO_THROW(StateGraph::validateTaskCapacity(255, 256));
}

TEST(SpillConfigValidation, ExplicitChunkShiftRangeChecked) {
  SpillConfig tooSmall;
  tooSmall.edgeChunkShift = 5;
  EXPECT_THROW(StateGraph::resolveEdgeChunkShift(tooSmall),
               std::invalid_argument);
  SpillConfig tooBig;
  tooBig.edgeChunkShift = 21;
  EXPECT_THROW(StateGraph::resolveEdgeChunkShift(tooBig),
               std::invalid_argument);
  SpillConfig fine;
  fine.edgeChunkShift = 8;
  EXPECT_EQ(StateGraph::resolveEdgeChunkShift(fine), 8u);
}

TEST(SpillConfigValidation, AutoChunkShiftScalesWithBudget) {
  SpillConfig unbounded;
  EXPECT_EQ(StateGraph::resolveEdgeChunkShift(unbounded), 15u);
  // Budgets pick the largest shift in [8, 15] with ~16 chunks of headroom,
  // so tiny bounded runs still seal and demote whole chunks.
  SpillConfig small;
  small.memoryBudgetBytes = 1 << 20;
  const std::uint32_t s = StateGraph::resolveEdgeChunkShift(small);
  EXPECT_GE(s, 8u);
  EXPECT_LT(s, 15u);
  SpillConfig huge;
  huge.memoryBudgetBytes = 1ull << 40;
  EXPECT_EQ(StateGraph::resolveEdgeChunkShift(huge), 15u);
}

}  // namespace
}  // namespace boosting::analysis

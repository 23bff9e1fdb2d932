// Property/fuzz suite for orbit canonicalization: on random reachable
// states of the symmetric fixtures, canon must be (a) permutation-
// invariant -- canon(relabel(s, pi)) == canon(s) for every pi -- and
// (b) idempotent, while the transition function stays equivariant under
// relabeling (the assumption the quotient's soundness rests on). An
// exactness oracle pins canonicalize() to a reference full-enumeration
// minimization: same representative, same permutation. Runs
// under the TSan job via analysis_tests like the other fuzz suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "analysis/bivalence.h"
#include "analysis/symmetry.h"
#include "processes/relay_consensus.h"
#include "util/rng.h"

namespace boosting::analysis {
namespace {

std::unique_ptr<ioa::System> relayFixture(int n) {
  processes::RelaySystemSpec spec;
  spec.processCount = n;
  spec.objectResilience = 0;
  spec.policy = services::DummyPolicy::PreferDummy;
  return processes::buildRelayConsensusSystem(spec);
}

ioa::SystemState canonOf(const SymmetryPolicy& pol,
                         const ioa::SystemState& s) {
  if (auto c = pol.canonicalize(s)) return std::move(c->state);
  return s;
}

std::vector<int> randomPerm(util::Rng& rng, int n) {
  std::vector<int> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    const int j = static_cast<int>(rng.nextBelow(
        static_cast<std::uint64_t>(i) + 1));
    std::swap(p[static_cast<std::size_t>(i)], p[static_cast<std::size_t>(j)]);
  }
  return p;
}

// Fires up to `steps` uniformly chosen enabled tasks from `s`, recording
// every state. With failPercent > 0, each step first fails a uniformly
// chosen process with that probability (failPercent == 0 draws nothing
// extra from `rng`).
void walkFrom(const ioa::System& sys, util::Rng& rng, ioa::SystemState s,
              int steps, int failPercent, std::vector<ioa::SystemState>& out) {
  const auto& tasks = sys.allTasks();
  out.push_back(s);
  for (int step = 0; step < steps; ++step) {
    if (failPercent > 0 &&
        rng.nextBelow(100) < static_cast<std::uint64_t>(failPercent)) {
      sys.injectFail(s, static_cast<int>(rng.nextBelow(
                            static_cast<std::uint64_t>(sys.processCount()))));
      out.push_back(s);
    }
    // Reservoir-pick one enabled task uniformly.
    std::optional<ioa::Action> pick;
    std::uint64_t seen = 0;
    for (const ioa::TaskId& t : tasks) {
      if (auto a = sys.enabled(s, t)) {
        ++seen;
        if (rng.nextBelow(seen) == 0) pick = std::move(a);
      }
    }
    if (!pick) break;
    sys.applyInPlace(s, *pick);
    out.push_back(s);
  }
}

// Random fair-ish walk: sample reachable states by repeatedly firing a
// uniformly chosen enabled task from a random canonical initialization.
std::vector<ioa::SystemState> sampleStates(const ioa::System& sys,
                                           util::Rng& rng, int walks,
                                           int stepsPerWalk) {
  std::vector<ioa::SystemState> out;
  for (int w = 0; w < walks; ++w) {
    const int ones = static_cast<int>(
        rng.nextBelow(static_cast<std::uint64_t>(sys.processCount()) + 1));
    walkFrom(sys, rng, canonicalInitialization(sys, ones), stepsPerWalk,
             /*failPercent=*/0, out);
  }
  return out;
}

void checkCanonProperties(const ioa::System& sys, const SymmetryPolicy& pol,
                          util::Rng& rng, int permsPerState) {
  const auto states = sampleStates(sys, rng, /*walks=*/8, /*stepsPerWalk=*/20);
  ASSERT_FALSE(states.empty());
  for (const ioa::SystemState& s : states) {
    const ioa::SystemState canon = canonOf(pol, s);
    // Idempotence: a representative canonicalizes to itself.
    const auto again = pol.canonicalize(canon);
    if (again) {
      EXPECT_TRUE(again->state.equals(canon))
          << "canon not idempotent at\n" << s.str();
    }
    // The reported permutation really maps the input to the output, and
    // the COW hash cache survives the relabeling machinery intact.
    if (auto c = pol.canonicalize(s)) {
      EXPECT_TRUE(c->state.equals(pol.relabeled(s, c->perm)))
          << "CanonResult.perm inconsistent at\n" << s.str();
    }
    EXPECT_EQ(canon.hash(), canon.fullRehash());
    // Orbit invariance: every relabeling lands on the same representative.
    for (int k = 0; k < permsPerState; ++k) {
      const std::vector<int> pi = randomPerm(rng, sys.processCount());
      const ioa::SystemState relabeled = pol.relabeled(s, pi);
      EXPECT_TRUE(canonOf(pol, relabeled).equals(canon))
          << "canon(relabel(s, pi)) != canon(s) at\n" << s.str();
    }
  }
}

// Equivariance spot-check: relabel-then-step equals step-then-relabel.
// This is assumption (a)-(c) of analysis/symmetry.h, the load-bearing
// fact behind quotient soundness.
void checkEquivariance(const ioa::System& sys, const SymmetryPolicy& pol,
                       util::Rng& rng) {
  const auto states = sampleStates(sys, rng, /*walks=*/4, /*stepsPerWalk=*/12);
  for (const ioa::SystemState& s : states) {
    const std::vector<int> pi = randomPerm(rng, sys.processCount());
    const ioa::SystemState sp = pol.relabeled(s, pi);
    for (const ioa::TaskId& t : sys.allTasks()) {
      const auto a = sys.enabled(s, t);
      if (!a) continue;
      const ioa::Action ap = pol.relabelAction(*a, pi);
      const ioa::SystemState left = pol.relabeled(sys.apply(s, *a), pi);
      const ioa::SystemState right = sys.apply(sp, ap);
      EXPECT_TRUE(left.equals(right))
          << "equivariance broken for " << a->str() << " under relabeling";
    }
  }
}

TEST(SymmetryCanonFuzz, RelayN3IdFree) {
  auto sys = relayFixture(3);
  auto pol = SymmetryPolicy::forSystem(*sys, SymmetryMode::Auto);
  ASSERT_FALSE(pol->trivial()) << pol->disabledReason();
  util::Rng rng(0x5e1f5e1f5e1f5e1full);
  checkCanonProperties(*sys, *pol, rng, /*permsPerState=*/4);
}

TEST(SymmetryCanonFuzz, RelayN4IdFree) {
  auto sys = relayFixture(4);
  auto pol = SymmetryPolicy::forSystem(*sys, SymmetryMode::Auto);
  ASSERT_FALSE(pol->trivial()) << pol->disabledReason();
  util::Rng rng(0xfeedc0defeedc0deull);
  checkCanonProperties(*sys, *pol, rng, /*permsPerState=*/3);
}

TEST(SymmetryCanonFuzz, RelayEquivariance) {
  auto sys = relayFixture(3);
  auto pol = SymmetryPolicy::forSystem(*sys, SymmetryMode::Auto);
  ASSERT_FALSE(pol->trivial());
  util::Rng rng(0xabcdef0123456789ull);
  checkEquivariance(*sys, *pol, rng);
}

// -- Exactness oracle -----------------------------------------------------
//
// A test-only reference minimization, with no duplicate skipping and no
// lazy comparison: enumerate every candidate permutation (each assignment
// of a block of content-equal processes to the block's positions), relabel
// each into a whole state, compare whole states slot by slot on (cached
// hash, str()), and keep the first minimum.

int referenceCompare(const ioa::SystemState& a, const ioa::SystemState& b) {
  const std::size_t k = a.partCount();
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t ha = a.slotHashValue(i);
    const std::size_t hb = b.slotHashValue(i);
    if (ha != hb) return ha < hb ? -1 : 1;
    if (a.slotShared(i).get() == b.slotShared(i).get()) continue;
    const std::string sa = a.part(i).str();
    const std::string sb = b.part(i).str();
    if (sa != sb) return sa < sb ? -1 : 1;
  }
  return 0;
}

struct ReferencePerms {
  std::vector<std::vector<int>> perms;
  std::size_t largestBlock = 0;  // the largest tied block
};

void enumerateBlocks(const std::vector<std::vector<int>>& blocks,
                     const std::vector<int>& basePos, std::size_t bi,
                     std::vector<int>& perm,
                     std::vector<std::vector<int>>& out) {
  if (bi == blocks.size()) {
    out.push_back(perm);
    return;
  }
  std::vector<int> procs = blocks[bi];
  do {
    for (std::size_t k = 0; k < procs.size(); ++k) {
      perm[static_cast<std::size_t>(procs[k])] =
          basePos[bi] + static_cast<int>(k);
    }
    enumerateBlocks(blocks, basePos, bi + 1, perm, out);
  } while (std::next_permutation(procs.begin(), procs.end()));
}

ReferencePerms referenceCandidatePerms(const ioa::System& sys,
                                       const ioa::SystemState& s) {
  const int n = sys.processCount();
  ReferencePerms out;
  const auto keyOf = [&](int i) {
    const std::size_t slot = sys.slotForProcess(i);
    return std::make_pair(s.slotHashValue(slot), s.part(slot).str());
  };
  std::vector<int> order = SymmetryPolicy::identityPerm(n);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return keyOf(a) < keyOf(b); });
  std::vector<std::vector<int>> blocks;
  std::vector<int> basePos;
  for (int p = 0; p < n;) {
    int q = p;
    std::vector<int> procs;
    while (q < n && keyOf(order[static_cast<std::size_t>(p)]) ==
                        keyOf(order[static_cast<std::size_t>(q)])) {
      procs.push_back(order[static_cast<std::size_t>(q)]);
      ++q;
    }
    std::sort(procs.begin(), procs.end());
    out.largestBlock = std::max(out.largestBlock, procs.size());
    blocks.push_back(std::move(procs));
    basePos.push_back(p);
    p = q;
  }
  std::vector<int> perm(static_cast<std::size_t>(n));
  enumerateBlocks(blocks, basePos, 0, perm, out.perms);
  return out;
}

std::optional<SymmetryPolicy::CanonResult> referenceCanonicalize(
    const ioa::System& sys, const SymmetryPolicy& pol,
    const ioa::SystemState& s) {
  s.hash();
  const std::vector<std::vector<int>> perms =
      referenceCandidatePerms(sys, s).perms;
  std::optional<ioa::SystemState> best;
  std::size_t bestIdx = 0;
  for (std::size_t i = 0; i < perms.size(); ++i) {
    ioa::SystemState cand = pol.relabeled(s, perms[i]);
    if (!best || referenceCompare(cand, *best) < 0) {
      best = std::move(cand);
      bestIdx = i;
    }
  }
  if (best->equals(s)) return std::nullopt;
  best->hash();
  return SymmetryPolicy::CanonResult{std::move(*best), perms[bestIdx]};
}

// Walks from every equal-input initialization (all processes tied) and
// from random ones, failing processes along the way, and checks that
// canonicalize() agrees with the reference on every visited state.
void checkMatchesReference(const ioa::System& sys, const SymmetryPolicy& pol,
                           util::Rng& rng, int walks, int stepsPerWalk) {
  const int n = sys.processCount();
  std::vector<ioa::SystemState> states;
  for (int w = 0; w < walks; ++w) {
    int ones = static_cast<int>(
        rng.nextBelow(static_cast<std::uint64_t>(n) + 1));
    if (w < 2) ones = w == 0 ? 0 : n;  // equal inputs: one tied block
    walkFrom(sys, rng, canonicalInitialization(sys, ones), stepsPerWalk,
             /*failPercent=*/w % 2 == 0 ? 15 : 0, states);
  }
  std::size_t collapsed = 0;
  std::size_t largestBlock = 0;
  for (const ioa::SystemState& s : states) {
    largestBlock = std::max(largestBlock,
                            referenceCandidatePerms(sys, s).largestBlock);
    const auto want = referenceCanonicalize(sys, pol, s);
    const auto got = pol.canonicalize(s);
    ASSERT_EQ(got.has_value(), want.has_value()) << s.str();
    if (!got) continue;
    ++collapsed;
    EXPECT_TRUE(got->state.equals(want->state))
        << "representative differs from the full enumeration at\n" << s.str();
    EXPECT_EQ(got->state.hash(), want->state.hash());
    EXPECT_EQ(got->state.hash(), got->state.fullRehash());
    EXPECT_EQ(got->perm, want->perm)
        << "permutation differs from the full enumeration at\n" << s.str();
  }
  // The sample must exercise the interesting cases: states the quotient
  // rewrites, candidates skipped as duplicates and a tie block spanning
  // every process.
  EXPECT_GT(collapsed, 0u);
  EXPECT_LT(pol.candidatesEvaluated(), pol.candidatePerms());
  EXPECT_EQ(largestBlock, static_cast<std::size_t>(n));
}

TEST(SymmetryCanonFuzz, MatchesFullEnumerationRelay) {
  const std::uint64_t seeds[] = {0x0a11ce5eedull, 0xb0b5eedull, 0xca11ab1eull};
  for (int n : {3, 4, 5}) {
    SCOPED_TRACE("relay n=" + std::to_string(n));
    auto sys = relayFixture(n);
    auto pol = SymmetryPolicy::forSystem(*sys, SymmetryMode::Auto);
    ASSERT_FALSE(pol->trivial()) << pol->disabledReason();
    util::Rng rng(seeds[n - 3]);
    checkMatchesReference(*sys, *pol, rng, /*walks=*/10, /*stepsPerWalk=*/30);
  }
}

TEST(SymmetryCanonFuzz, PermAlgebra) {
  util::Rng rng(42);
  for (int n : {1, 2, 3, 5, 7}) {
    for (int k = 0; k < 16; ++k) {
      const auto p = randomPerm(rng, n);
      const auto q = randomPerm(rng, n);
      EXPECT_TRUE(SymmetryPolicy::isIdentity(
          SymmetryPolicy::composePerm(SymmetryPolicy::invertPerm(p), p)));
      EXPECT_TRUE(SymmetryPolicy::isIdentity(
          SymmetryPolicy::composePerm(p, SymmetryPolicy::invertPerm(p))));
      // (p o q)^{-1} == q^{-1} o p^{-1}.
      EXPECT_EQ(SymmetryPolicy::invertPerm(SymmetryPolicy::composePerm(p, q)),
                SymmetryPolicy::composePerm(SymmetryPolicy::invertPerm(q),
                                            SymmetryPolicy::invertPerm(p)));
    }
    EXPECT_TRUE(SymmetryPolicy::isIdentity(SymmetryPolicy::identityPerm(n)));
  }
}

}  // namespace
}  // namespace boosting::analysis

#include "analysis/symmetry.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>

namespace boosting::analysis {

namespace {

// One slot of a relabeled state that is never materialized as a whole:
// its content and that content's hash. A null state means "not computed".
struct SlotValue {
  std::shared_ptr<const ioa::AutomatonState> state;
  std::size_t hash = 0;
};

bool sameContent(const ioa::AutomatonState& a, const ioa::AutomatonState& b) {
  return &a == &b || a.equals(b);
}

// Deterministic total order over the contents of one slot: cached hash
// first, then identity or equals(), and the serialized content only for
// distinct contents whose hashes collide. Consistent with equals() as long
// as every component's str() is faithful (injective on distinct contents)
// -- a documented obligation of relabelable components.
int compareSlot(const SlotValue& a, const SlotValue& b) {
  if (a.hash != b.hash) return a.hash < b.hash ? -1 : 1;
  if (sameContent(*a.state, *b.state)) return 0;
  const std::string sa = a.state->str();
  const std::string sb = b.state->str();
  if (sa == sb) return 0;
  return sa < sb ? -1 : 1;
}

std::uint64_t mulSaturating(std::uint64_t a, std::uint64_t b) {
  if (b != 0 && a > UINT64_MAX / b) return UINT64_MAX;
  return a * b;
}

std::uint64_t addSaturating(std::uint64_t a, std::uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

// The minimization behind one canonicalize() call.
//
// Candidates: the permutations that sort the process slots by (cached hash,
// content), i.e. every assignment of each block of content-equal processes
// to that block's positions; blocks vary lexicographically (process at each
// position), the first block slowest. The result is the FIRST candidate
// whose relabeling is minimal under compareSlot.
//
// Duplicate skipping. Processes i and j are indistinguishable in s when
// the transposition (i j) fixes s. That is an equivalence relation
// (conjugating (i j) by (j k) gives (i k), and the permutations fixing s
// form a group), so its classes come from one check per (process, class
// representative) pair. Classes lie inside blocks (equal content is
// necessary), so only tied blocks are refined. Any permutation sigma that
// only permutes within classes fixes s, so relabeled(s, p o sigma) ==
// relabeled(s, p): the candidates fall into groups of equal relabelings,
// each group holding exactly one permutation that keeps every class in
// ascending process order (lower index at the lower position). That one is
// also the group's lexicographically first member: at the positions a class
// occupies, ascending is the smallest arrangement. So the first minimum of
// the kept candidates is the first minimum of the full enumeration -- the
// same state and the same permutation.
//
// Lazy comparison. Position p holds the content of p's block under every
// candidate, so process slots are never compared. A candidate is compared
// to the running best one service slot at a time, relabeling only that slot
// and stopping at the first slot that differs; the best candidate's service
// slots are kept as they are computed.
class OrbitMinimizer {
 public:
  OrbitMinimizer(const ioa::System& sys, const ioa::SystemState& s)
      : sys_(sys),
        s_(s),
        n_(sys.processCount()),
        firstService_(static_cast<std::size_t>(n_)),
        prevMember_(static_cast<std::size_t>(n_), -1) {}

  // Runs the minimization; the winner is bestPerm().
  void minimize() {
    std::vector<int> perm = setUp();
    best_ = perm;
    bestSlots_.assign(s_.partCount(), SlotValue{});
    candidatesEvaluated = 1;
    while (nextCandidate(perm)) {
      ++candidatesEvaluated;
      int cmp = 0;
      SlotValue cand;
      std::size_t pos = firstService_;
      for (; pos < s_.partCount(); ++pos) {
        cand = serviceSlot(perm, pos);
        cmp = compareSlot(cand, bestSlot(pos));
        if (cmp != 0) break;
      }
      if (cmp < 0) {
        best_ = perm;
        bestSlots_[pos] = std::move(cand);
        for (std::size_t k = pos + 1; k < bestSlots_.size(); ++k) {
          bestSlots_[k].state.reset();
        }
      }
    }
  }

  const std::vector<int>& bestPerm() const { return best_; }

  // relabeled(s, bestPerm()), built once; nullopt when it equals s.
  std::optional<ioa::SystemState> representative() {
    if (SymmetryPolicy::isIdentity(best_)) return std::nullopt;
    const std::vector<int> inv = SymmetryPolicy::invertPerm(best_);
    for (std::size_t pos = 0; pos < firstService_; ++pos) {
      const std::size_t from = sys_.slotForProcess(inv[pos]);
      bestSlots_[pos] = {s_.slotShared(from), s_.slotHashValue(from)};
    }
    bool same = true;
    for (std::size_t pos = 0; pos < s_.partCount(); ++pos) {
      const SlotValue& b = bestSlot(pos);  // fills every slot for the build
      if (b.state.get() != s_.slotShared(pos).get() &&
          (b.hash != s_.slotHashValue(pos) ||
           !b.state->equals(s_.part(pos)))) {
        same = false;
      }
    }
    if (same) return std::nullopt;
    ioa::SystemState t(s_);
    for (std::size_t pos = 0; pos < s_.partCount(); ++pos) {
      const SlotValue& b = bestSlots_[pos];
      if (b.state.get() != s_.slotShared(pos).get()) {
        t.setSlot(pos, b.state, b.hash);
      }
    }
    t.hash();  // publishable: every slot cache valid
    return t;
  }

  std::uint64_t candidatePerms = 1;  // size of the full enumeration
  std::uint64_t candidatesEvaluated = 0;
  std::uint64_t slotRelabels = 0;

 private:
  // A block of content-equal processes and the positions it occupies.
  struct Block {
    std::vector<int> procs;  // ascending process indices
    int basePos = 0;
    std::vector<int> arr;    // arr[k]: the process placed at basePos + k
  };

  // Builds the blocks and the indistinguishability classes; returns the
  // first candidate.
  std::vector<int> setUp() {
    std::vector<int> perm = SymmetryPolicy::identityPerm(n_);
    const std::size_t n = static_cast<std::size_t>(n_);
    std::vector<std::size_t> h(n);
    for (std::size_t i = 0; i < n; ++i) {
      h[i] = s_.slotHashValue(sys_.slotForProcess(static_cast<int>(i)));
    }
    std::vector<std::string> strCache(n);
    std::vector<bool> strReady(n, false);
    const auto strOf = [&](int i) -> const std::string& {
      const auto ui = static_cast<std::size_t>(i);
      if (!strReady[ui]) {
        strCache[ui] = s_.part(sys_.slotForProcess(i)).str();
        strReady[ui] = true;
      }
      return strCache[ui];
    };
    const auto sameProc = [&](int a, int b) {
      return sameContent(s_.part(sys_.slotForProcess(a)),
                         s_.part(sys_.slotForProcess(b)));
    };
    std::vector<int> order = SymmetryPolicy::identityPerm(n_);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      const auto ha = h[static_cast<std::size_t>(a)];
      const auto hb = h[static_cast<std::size_t>(b)];
      if (ha != hb) return ha < hb;
      if (sameProc(a, b)) return false;
      return strOf(a) < strOf(b);
    });
    const auto tied = [&](int a, int b) {
      return h[static_cast<std::size_t>(a)] ==
                 h[static_cast<std::size_t>(b)] &&
             (sameProc(a, b) || strOf(a) == strOf(b));
    };
    for (int p = 0; p < n_;) {
      Block b;
      b.basePos = p;
      int q = p;
      while (q < n_ && tied(order[static_cast<std::size_t>(p)],
                            order[static_cast<std::size_t>(q)])) {
        b.procs.push_back(order[static_cast<std::size_t>(q)]);
        ++q;
      }
      std::sort(b.procs.begin(), b.procs.end());
      b.arr = b.procs;
      for (int k = 2; k <= q - p; ++k) {
        candidatePerms =
            mulSaturating(candidatePerms, static_cast<std::uint64_t>(k));
      }
      if (b.procs.size() > 1) findClasses(b.procs);
      place(b, perm);
      blocks_.push_back(std::move(b));
      p = q;
    }
    return perm;
  }

  // Partitions `procs` (ascending) into indistinguishability classes,
  // recording each process's previous class member in prevMember_.
  void findClasses(const std::vector<int>& procs) {
    std::vector<int> reps;
    std::vector<int> last(static_cast<std::size_t>(n_), -1);
    for (int i : procs) {
      const auto ui = static_cast<std::size_t>(i);
      bool joined = false;
      for (int r : reps) {
        if (fixedBySwap(r, i)) {
          const auto ur = static_cast<std::size_t>(r);
          prevMember_[ui] = last[ur];
          last[ur] = i;
          joined = true;
          break;
        }
      }
      if (!joined) {
        reps.push_back(i);
        last[ui] = i;
      }
    }
  }

  // Does the transposition (a b) fix s? The process slots of a block hold
  // equal content, so only the service slots need checking.
  bool fixedBySwap(int a, int b) {
    std::vector<int> tau = SymmetryPolicy::identityPerm(n_);
    std::swap(tau[static_cast<std::size_t>(a)],
              tau[static_cast<std::size_t>(b)]);
    for (std::size_t pos = firstService_; pos < s_.partCount(); ++pos) {
      const SlotValue v = serviceSlot(tau, pos);
      if (v.hash != s_.slotHashValue(pos) ||
          !sameContent(*v.state, s_.part(pos))) {
        return false;
      }
    }
    return true;
  }

  static void place(const Block& b, std::vector<int>& perm) {
    for (std::size_t k = 0; k < b.arr.size(); ++k) {
      perm[static_cast<std::size_t>(b.arr[k])] =
          b.basePos + static_cast<int>(k);
    }
  }

  // Advances `perm` to the next kept candidate; false once exhausted.
  bool nextCandidate(std::vector<int>& perm) {
    for (std::size_t bi = blocks_.size(); bi-- > 0;) {
      Block& b = blocks_[bi];
      const bool advanced = nextArrangement(b.arr);
      if (!advanced) b.arr = b.procs;
      place(b, perm);
      if (advanced) return true;
    }
    return false;
  }

  // Lexicographic successor of `arr` among the arrangements that keep every
  // class in ascending process order. The suffix arr[t..] holds the
  // processes not placed before t; one of them may go to t when its
  // previous class member is already placed, and the smallest completion
  // of the rest is ascending order.
  bool nextArrangement(std::vector<int>& arr) const {
    for (std::size_t t = arr.size() - 1; t-- > 0;) {
      const auto rest = arr.begin() + static_cast<std::ptrdiff_t>(t);
      auto pick = arr.end();
      for (auto it = rest; it != arr.end(); ++it) {
        const int prev = prevMember_[static_cast<std::size_t>(*it)];
        const bool free =
            prev < 0 || std::find(rest, arr.end(), prev) == arr.end();
        if (free && *it > *rest && (pick == arr.end() || *it < *pick)) {
          pick = it;
        }
      }
      if (pick != arr.end()) {
        std::iter_swap(rest, pick);
        std::sort(rest + 1, arr.end());
        return true;
      }
    }
    return false;
  }

  // Service slot `pos` of relabeled(s, perm).
  SlotValue serviceSlot(const std::vector<int>& perm, std::size_t pos) {
    ++slotRelabels;
    std::shared_ptr<const ioa::AutomatonState> ns =
        sys_.componentAtSlot(pos).relabeledState(s_.part(pos), perm);
    assert(ns && "relabeledState support was validated in forSystem");
    const std::size_t h = ns->hash();
    return {std::move(ns), h};
  }

  // Slot `pos` of the best candidate's relabeling. Service slots are
  // computed on first use; process slots are filled by representative().
  const SlotValue& bestSlot(std::size_t pos) {
    SlotValue& b = bestSlots_[pos];
    if (!b.state) b = serviceSlot(best_, pos);
    return b;
  }

  const ioa::System& sys_;
  const ioa::SystemState& s_;
  const int n_;
  const std::size_t firstService_;
  // prevMember_[i]: the next lower process in i's class, -1 for the lowest.
  std::vector<int> prevMember_;
  std::vector<Block> blocks_;
  std::vector<int> best_;
  std::vector<SlotValue> bestSlots_;
};

bool endpointsAreAllProcesses(const std::vector<int>& endpoints, int n) {
  if (static_cast<int>(endpoints.size()) != n) return false;
  for (int i = 0; i < n; ++i) {
    if (endpoints[static_cast<std::size_t>(i)] != i) return false;
  }
  return true;
}

}  // namespace

std::vector<int> SymmetryPolicy::identityPerm(int n) {
  std::vector<int> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  return p;
}

bool SymmetryPolicy::isIdentity(const std::vector<int>& p) {
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] != static_cast<int>(i)) return false;
  }
  return true;
}

std::vector<int> SymmetryPolicy::composePerm(const std::vector<int>& outer,
                                             const std::vector<int>& inner) {
  assert(outer.size() == inner.size());
  std::vector<int> out(inner.size());
  for (std::size_t i = 0; i < inner.size(); ++i) {
    out[i] = outer[static_cast<std::size_t>(inner[i])];
  }
  return out;
}

std::vector<int> SymmetryPolicy::invertPerm(const std::vector<int>& p) {
  std::vector<int> out(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    out[static_cast<std::size_t>(p[i])] = static_cast<int>(i);
  }
  return out;
}

std::shared_ptr<const SymmetryPolicy> SymmetryPolicy::forSystem(
    const ioa::System& sys, SymmetryMode mode) {
  std::shared_ptr<SymmetryPolicy> pol(new SymmetryPolicy());
  pol->sys_ = &sys;
  pol->n_ = sys.processCount();
  const auto disabled = [&pol](std::string why) {
    pol->trivial_ = true;
    pol->disabledReason_ = std::move(why);
    return pol;
  };

  if (mode == SymmetryMode::Off) return disabled("disabled (--symmetry off)");
  if (!sys.processSymmetric()) {
    return disabled("candidate declares no process symmetry");
  }
  if (pol->n_ < 2) return disabled("fewer than two processes: trivial group");
  // Full S_n is an automorphism group only if every service is connected
  // to every process (the connection pattern is permutation-invariant).
  for (int id : sys.serviceIds()) {
    if (!endpointsAreAllProcesses(sys.serviceMeta(id).endpoints, pol->n_)) {
      return disabled("service connection pattern is not process-symmetric");
    }
  }
  // Every slot the relabeling touches must implement relabeledState.
  const ioa::SystemState init = sys.initialState();
  const std::vector<int> id = identityPerm(pol->n_);
  const std::size_t firstService = static_cast<std::size_t>(pol->n_);
  for (std::size_t k = firstService; k < init.partCount(); ++k) {
    if (!sys.componentAtSlot(k).relabeledState(init.part(k), id)) {
      return disabled("a service does not support relabeling");
    }
  }

  pol->trivial_ = false;
  return pol;
}

ioa::SystemState SymmetryPolicy::relabeled(const ioa::SystemState& s,
                                           const std::vector<int>& perm) const {
  if (isIdentity(perm)) return s;
  s.hash();  // flush slot caches so slotHashValue is the cached content hash
  ioa::SystemState t(s);
  const std::size_t firstService = static_cast<std::size_t>(n_);
  for (int i = 0; i < n_; ++i) {
    const std::size_t from = sys_->slotForProcess(i);
    const std::size_t to = sys_->slotForProcess(perm[static_cast<std::size_t>(i)]);
    // Process content is id-free, hence position-independent: move the
    // shared pointer, no clone, reusing the cached slot hash.
    t.setSlot(to, s.slotShared(from), s.slotHashValue(from));
  }
  for (std::size_t k = firstService; k < s.partCount(); ++k) {
    std::shared_ptr<const ioa::AutomatonState> ns =
        sys_->componentAtSlot(k).relabeledState(s.part(k), perm);
    assert(ns && "relabeledState support was validated in forSystem");
    const std::size_t h = ns->hash();
    t.setSlot(k, std::move(ns), h);
  }
  return t;
}

ioa::Action SymmetryPolicy::relabelAction(const ioa::Action& a,
                                          const std::vector<int>& perm) const {
  ioa::Action out = a;
  if (a.endpoint >= 0) out.endpoint = perm[static_cast<std::size_t>(a.endpoint)];
  return out;
}


std::optional<SymmetryPolicy::CanonResult> SymmetryPolicy::canonicalize(
    const ioa::SystemState& s) const {
  if (trivial_) return std::nullopt;
  ++statesRaw_;
  s.hash();  // flush the per-slot caches the candidate keys reuse

  OrbitMinimizer m(*sys_, s);
  m.minimize();
  std::optional<ioa::SystemState> rep = m.representative();
  candidatePerms_ = addSaturating(candidatePerms_, m.candidatePerms);
  candidatesEvaluated_ += m.candidatesEvaluated;
  slotRelabels_ += m.slotRelabels;
  if (!rep) return std::nullopt;
  ++orbitsCollapsed_;
  return CanonResult{std::move(*rep), m.bestPerm()};
}

}  // namespace boosting::analysis

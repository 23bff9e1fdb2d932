// TransitionCache: memoized component transitions over hash-consed slots.
//
// Under the determinism assumptions of Section 3.1, whether task e is
// enabled -- and which action it produces -- is a pure function of the
// owning component's local state, and the effect of an action on a
// participant is a pure function of that participant's local state and the
// action. Because the exploration engines hash-cons slot states through a
// SlotCanonTable, "local state" is identified by a canonical pointer, so
// both functions are memoizable with pointer keys:
//
//   (owner slot state, task)          -> enabled? + action + participants
//   (participant slot state, action)  -> canonical successor slot + hash
//
// With both memos warm, expanding an edge costs a SystemState copy
// (refcount bumps) plus one hash-map lookup per participant; no component
// is cloned, stepped, rehashed, or canonicalized more than once per
// distinct (local state, action) pair in the whole exploration. The action
// identity in the second memo is represented by its producer (owner
// pointer, task) -- determinism again -- so the two memos collapse into
// one keyed table.
//
// Correctness never depends on canonicality: a non-canonical (but
// immutable) slot pointer only causes a memo miss and a recomputation.
// The cache is NOT thread-safe: one exploration uses it at a time.
#pragma once

#include <cstddef>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ioa/system.h"
#include "util/hashing.h"

namespace boosting::analysis {

class TransitionCache {
 public:
  // Memo effectiveness tallies, kept as plain members (the cache is
  // single-threaded by contract) and flushed to an obs::Registry by the
  // owning engine at phase boundaries. By construction
  // hits + misses == lookups for each memo; the observability test suite
  // asserts the invariant end to end.
  struct Stats {
    std::uint64_t enabledLookups = 0;  // (owner slot, task) memo probes
    std::uint64_t enabledHits = 0;
    std::uint64_t enabledMisses = 0;
    std::uint64_t applyLookups = 0;  // (participant slot, action) probes
    std::uint64_t applyHits = 0;
    std::uint64_t applyMisses = 0;

    void accumulate(const Stats& other) {
      enabledLookups += other.enabledLookups;
      enabledHits += other.enabledHits;
      enabledMisses += other.enabledMisses;
      applyLookups += other.applyLookups;
      applyHits += other.applyHits;
      applyMisses += other.applyMisses;
    }

    // This snapshot minus an earlier one of the same cache. Every field is
    // monotone, so the difference is a well-formed Stats that satisfies
    // hits + misses == lookups whenever both endpoints do. Used to report
    // PER-GRAPH tallies of a cache shared across graphs (a service memo,
    // see analysis/analysis_memo.h).
    Stats deltaSince(const Stats& base) const {
      Stats d;
      d.enabledLookups = enabledLookups - base.enabledLookups;
      d.enabledHits = enabledHits - base.enabledHits;
      d.enabledMisses = enabledMisses - base.enabledMisses;
      d.applyLookups = applyLookups - base.applyLookups;
      d.applyHits = applyHits - base.applyHits;
      d.applyMisses = applyMisses - base.applyMisses;
      return d;
    }
  };

  // Both referees must outlive the cache; `sys` must be fully built (the
  // task list is snapshotted here).
  TransitionCache(const ioa::System& sys, ioa::SlotCanonTable& canon);

  const Stats& stats() const { return stats_; }

  // If task #taskIndex (in sys.allTasks() order) is enabled in `s`, makes
  // *next the successor state -- canonical slots, all hash caches valid --
  // and returns the enabled action (owned by the cache, stable until
  // destruction). Returns nullptr when disabled. `s` must only contain
  // immutable shared slots (any state produced by the engines or by step()
  // itself qualifies).
  //
  // *next is a reusable scratch buffer: pass the same object for every
  // task expanded from the same source `s`, without mutating it in
  // between (moving it away -- e.g. interning the successor -- is fine).
  // When the buffer still holds the previous successor of `s`, only the
  // slots touched by the previous step are reverted and only the new
  // participant slots are written: the per-edge cost is a handful of
  // pointer swaps, no slot-vector copy.
  const ioa::Action* step(const ioa::SystemState& s, std::size_t taskIndex,
                          ioa::SystemState* next);

 private:
  struct SlotNext {
    std::shared_ptr<const ioa::AutomatonState> state;
    std::size_t hash = 0;
  };
  struct Participant {
    std::size_t slot = 0;
    std::unordered_map<const ioa::AutomatonState*, SlotNext> next;
  };
  struct TaskEntry {
    bool enabled = false;
    ioa::Action action;
    std::vector<Participant> participants;
  };
  struct Key {
    const ioa::AutomatonState* owner = nullptr;
    std::size_t task = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(util::mix64(
          reinterpret_cast<std::uintptr_t>(k.owner) ^
          (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(k.task) + 1))));
    }
  };

  const ioa::System& sys_;
  ioa::SlotCanonTable& canon_;
  std::vector<std::size_t> ownerSlot_;  // per task index
  std::unordered_map<Key, TaskEntry, KeyHash> entries_;
  // Scratch-buffer bookkeeping: the source state the buffer was last
  // prepared from (address of an engine-stable state) and the slots the
  // previous step wrote, so the next step can revert just those.
  const ioa::SystemState* lastSource_ = nullptr;
  std::vector<std::size_t> lastTouched_;
  Stats stats_;
};

}  // namespace boosting::analysis

// SymmetryPolicy: orbit canonicalization of SystemStates under the
// candidate's process-permutation group (symmetry reduction).
//
// The paper's proof machinery is symmetric in process identity: the
// j/k-similarity relations of Sections 3.3 and 3.5 (Lemmas 6-8) never
// depend on WHICH processes are in a given local state, only on the
// multiset of local states and how the services relate them. For a
// candidate whose automorphism group is the full S_n (every process runs
// the same program and every service is connected to all processes --
// relay), two configurations that differ by a permutation of
// process identities generate permuted copies of the same execution
// subtree: valence, bivalence, hooks and the adversary's gamma
// construction are all preserved by relabeling. The exploration engines
// may therefore intern a single canonical representative per orbit,
// shrinking the reachable graph by up to n!.
//
// Canonical form: the minimum, over the group, of the relabeled state
// under a deterministic per-slot order (cached slot hash first, serialized
// slot content as the tie-break -- reusing the COW representation's
// per-slot hash caches, see DESIGN.md "State representation"). A candidate
// declares the symmetry (System::declareProcessSymmetry) only when its
// process states and service values never mention process identities, so
// relabeling moves process slots without rewriting them and rewrites a
// service slot only by remapping its endpoint keys. The process part of
// the canonical form is therefore the multiset of local states, sorted by
// content key, and the minimization only enumerates permutations within
// blocks of tied process slots, comparing the relabeled service slots.
// Ties go to the first minimum in that enumeration order (block by block,
// lexicographic).
// Candidates whose process states embed identities (flooding: messages
// indexed by sender) declare no symmetry and run unreduced.
//
// The minimization never enumerates duplicates: processes i and j are
// indistinguishable in s when the transposition (i j) fixes s, and every
// candidate that orders two indistinguishable processes against their
// indices relabels s exactly like an earlier candidate that does not, so
// it is skipped. Candidates are compared to the running best one service
// slot at a time, relabeling only the slot being compared and stopping at
// the first slot that differs (process slots are equal across candidates
// by construction and never compared); the winner is materialized once.
// The representative AND its permutation are those of the full
// enumeration -- the argument is spelled out in symmetry.cpp and checked
// against a reference copy of the full enumeration by
// symmetry_canon_fuzz_test.
//
// Soundness hinges on equivariance of the composed transition function:
//   relabel_pi(apply(s, a)) == apply(relabel_pi(s), relabel_pi(a))
// which holds because (a) the composition routes actions structurally by
// endpoint, (b) process states and service values (hence action payloads)
// embed no process identity and each service's relabeledState maps its
// endpoint keys through pi, and (c) components treat endpoints
// symmetrically (validated assumptions; exercised by the symmetry fuzz
// suite). Witnesses found in the quotient graph are lifted back to real
// executions by accumulating the canonicalization permutations along the
// path (see adversary.cpp).
//
// Thread safety: none. A policy is built per analysis and used by that
// analysis's one exploring thread; canonicalize() bumps the statistics
// without synchronization. The policy borrows the System, which must
// outlive it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ioa/system.h"

namespace boosting::analysis {

// CLI-facing selection: Auto enables the reduction whenever the candidate
// declares a usable symmetry (disabledReason says why it stayed off), Off
// forces the identity group (the legacy behavior and the default for every
// analysis entry point).
enum class SymmetryMode { Auto, Off };

class SymmetryPolicy {
 public:
  struct CanonResult {
    ioa::SystemState state;  // the orbit representative, != the input
    std::vector<int> perm;   // state == relabeled(input, perm)
  };

  // Builds the policy for `sys` under `mode`. Never fails: when the
  // reduction cannot be applied soundly (no declared symmetry, asymmetric
  // service connection pattern, a service without relabeledState support,
  // fewer than two processes, mode Off) the returned policy is trivial() and disabledReason()
  // says why. The System must outlive the policy.
  static std::shared_ptr<const SymmetryPolicy> forSystem(
      const ioa::System& sys, SymmetryMode mode);

  // Trivial group: canonicalize() always answers "already canonical".
  bool trivial() const { return trivial_; }
  const std::string& disabledReason() const { return disabledReason_; }

  // The orbit representative of `s`, or nullopt when `s` already is it
  // (the common case once exploration reaches a steady state). Never
  // mutates `s`: the engines' reusable successor buffers must survive a
  // canonicalizing intern untouched (see transition_cache.h).
  std::optional<CanonResult> canonicalize(const ioa::SystemState& s) const;

  // `s` relabeled under `perm` (perm[i] is the new index of process i):
  // process slot i's content moves to slot perm[i] unchanged and every
  // service slot is rewritten via
  // Automaton::relabeledState. Exposed for the witness-lifting pass and
  // the fuzz suite.
  ioa::SystemState relabeled(const ioa::SystemState& s,
                             const std::vector<int>& perm) const;

  // `a` relabeled under `perm`: endpoint mapped through perm; the payload
  // is id-free and stays as it is.
  ioa::Action relabelAction(const ioa::Action& a,
                            const std::vector<int>& perm) const;

  // -- Permutation algebra helpers ----------------------------------------
  static std::vector<int> identityPerm(int n);
  static bool isIdentity(const std::vector<int>& p);
  // (outer o inner)(i) == outer[inner[i]].
  static std::vector<int> composePerm(const std::vector<int>& outer,
                                      const std::vector<int>& inner);
  static std::vector<int> invertPerm(const std::vector<int>& p);

  // -- Quotient statistics (flushed by flushGraphMetrics) -----------------
  // States presented for canonicalization (== intern probes).
  std::uint64_t statesRaw() const { return statesRaw_; }
  // Probes whose state was replaced by a different orbit representative.
  std::uint64_t orbitsCollapsed() const { return orbitsCollapsed_; }
  // Minimization cost: the permutations the full enumeration would relabel
  // (the product of the tied-block factorials), the ones actually
  // walked after duplicate skipping, and the component relabelings
  // (relabeledState calls) spent. orbitsCollapsed <= candidatesEvaluated
  // <= candidatePerms.
  std::uint64_t candidatePerms() const { return candidatePerms_; }
  std::uint64_t candidatesEvaluated() const { return candidatesEvaluated_; }
  std::uint64_t slotRelabels() const { return slotRelabels_; }

 private:
  SymmetryPolicy() = default;

  const ioa::System* sys_ = nullptr;
  bool trivial_ = true;
  std::string disabledReason_;
  int n_ = 0;

  mutable std::uint64_t statesRaw_ = 0;
  mutable std::uint64_t orbitsCollapsed_ = 0;
  mutable std::uint64_t candidatePerms_ = 0;
  mutable std::uint64_t candidatesEvaluated_ = 0;
  mutable std::uint64_t slotRelabels_ = 0;
};

}  // namespace boosting::analysis

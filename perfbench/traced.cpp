// The traced run's pipeline: the phases of analyzeConsensusCandidate,
// called one by one through their public functions so that each gets its
// own span, plus the engine-layer and parallel-engine probes.
//
// The phase order and the choices between phases (Lemma-4 pair, hook,
// concrete re-derivation under symmetry, failure set J, gamma run) follow
// src/analysis/adversary.cpp; the traced outcome is compared against an
// untraced analyzeConsensusCandidate report, so a drift between the two
// shows up as a failed traced run.
#include <algorithm>
#include <optional>
#include <stdexcept>

#include "analysis/bivalence.h"
#include "analysis/hook.h"
#include "analysis/parallel_explorer.h"
#include "analysis/similarity.h"
#include "analysis/valence.h"
#include "obs/registry.h"
#include "perfbench.h"
#include "processes/process.h"
#include "sim/runner.h"

namespace perfbench {

namespace an = boosting::analysis;
namespace ioa = boosting::ioa;
using boosting::processes::ProcessBase;

namespace {

constexpr std::size_t kGammaMaxSteps = 100000;  // AdversaryConfig default
constexpr std::size_t kHookMaxIterations = 1u << 20;

std::uint64_t nsBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// Agreement and validity of the decisions recorded in one configuration.
bool nodeIsSafe(const ioa::System& sys, const ioa::SystemState& s) {
  std::vector<const boosting::util::Value*> inputs;
  std::vector<const boosting::util::Value*> decisions;
  for (int i = 0; i < sys.processCount(); ++i) {
    const auto& ps = ProcessBase::stateOf(s.part(sys.slotForProcess(i)));
    if (!ps.input.isNil()) inputs.push_back(&ps.input);
    if (!ps.decision.isNil()) decisions.push_back(&ps.decision);
  }
  for (const auto* d : decisions) {
    if (!(*d == *decisions.front())) return false;
    if (std::none_of(inputs.begin(), inputs.end(),
                     [d](const auto* in) { return *in == *d; })) {
      return false;
    }
  }
  return true;
}

std::set<int> chooseFailureSet(const ioa::System& sys,
                               const an::HookClassification& cls, int claim) {
  const int n = sys.processCount();
  std::set<int> J;
  auto fill = [&] {
    for (int i = 0; i < n && static_cast<int>(J.size()) < claim; ++i) {
      J.insert(i);
    }
  };
  switch (cls.kind) {
    case an::HookClassification::Kind::ProcessSimilar:
      J.insert(cls.index);
      fill();
      break;
    case an::HookClassification::Kind::ServiceSimilar: {
      const auto& ends = sys.serviceMeta(cls.index).endpoints;
      if (static_cast<int>(ends.size()) <= claim) {
        J.insert(ends.begin(), ends.end());
        fill();
      } else {
        for (int i : ends) {
          if (static_cast<int>(J.size()) >= claim) break;
          J.insert(i);
        }
      }
      break;
    }
    default:
      fill();
      break;
  }
  return J;
}

boosting::sim::RunResult runGamma(const ioa::System& sys,
                                  const ioa::SystemState& start,
                                  const std::set<int>& J,
                                  boosting::obs::Registry* reg) {
  boosting::sim::RunConfig cfg;
  cfg.startState = start;
  cfg.maxSteps = kGammaMaxSteps;
  cfg.detectLivelock = true;
  cfg.stopWhenAllDecided = false;
  cfg.metrics = reg;
  for (int i : J) cfg.failures.emplace_back(0, i);
  cfg.stop = [&J](const ioa::SystemState&, const ioa::Execution& exec) {
    if (exec.empty()) return false;
    const ioa::Action& a = exec.actions().back();
    return a.kind == ioa::ActionKind::EnvDecide && J.count(a.endpoint) == 0 &&
           a.payload.tag() == "decide";
  };
  return boosting::sim::run(sys, cfg);
}

bool undecided(const boosting::sim::RunResult& rr) {
  return rr.livelocked() ||
         rr.reason == boosting::sim::RunResult::Reason::StepLimit;
}

// Classification and gamma start of Lemma 8 (see adversary.cpp step 4).
struct GammaPlan {
  an::HookClassification classification;
  ioa::SystemState start;
};

GammaPlan planGamma(const ioa::System& sys, an::StateGraph& g,
                    const an::Hook& hook) {
  an::SimilarityOptions opts;
  opts.exemptFailureAware = true;
  const bool zeroSideIsAlpha0 = hook.alpha0Valence == an::Valence::Zero;
  GammaPlan plan;
  if (!g.symmetryActive()) {
    plan.classification = an::classifyHook(g, hook, opts);
    an::NodeId startNode = zeroSideIsAlpha0 ? hook.alpha0 : hook.alpha1;
    if (plan.classification.viaEPrime) {
      if (auto edge = g.successorVia(hook.alpha0, hook.ePrime)) {
        startNode = edge->to;
      }
    }
    plan.start = g.state(startNode);
    return plan;
  }
  const ioa::SystemState& A = g.state(hook.alpha);
  const std::optional<ioa::Action> aE = sys.enabled(A, hook.e);
  const std::optional<ioa::Action> aEp = sys.enabled(A, hook.ePrime);
  std::optional<ioa::SystemState> x0, x1, x0p;
  if (aE) x0 = sys.apply(A, *aE);
  if (aEp) {
    const ioa::SystemState b = sys.apply(A, *aEp);
    if (auto aEAtB = sys.enabled(b, hook.e)) x1 = sys.apply(b, *aEAtB);
  }
  if (x0) {
    if (auto aEpAtX0 = sys.enabled(*x0, hook.ePrime)) {
      x0p = sys.apply(*x0, *aEpAtX0);
    }
  }
  if (x0 && x1) {
    plan.classification =
        an::classifyHookStates(sys, *x0, *x1, x0p ? &*x0p : nullptr, opts);
  }
  if (plan.classification.viaEPrime && x0p) {
    plan.start = *x0p;
  } else if (zeroSideIsAlpha0 && x0) {
    plan.start = *x0;
  } else if (!zeroSideIsAlpha0 && x1) {
    plan.start = *x1;
  } else if (x0) {
    plan.start = *x0;
  } else {
    plan.start = A;
  }
  return plan;
}

// Walks the explored nodes in id (BFS) order on a fresh memo, timing the
// public engine-layer calls one expansion at a time: every task's
// TransitionCache::step, the POR ample decision, and -- for the successors
// the ample set keeps -- orbit canonicalization and interning into a
// plain graph. Policies are fresh so the job's own tallies stay untouched.
void probeEngineLayers(const JobSpec& spec, const ioa::System& sys,
                       const an::StateGraph& g, TracedOutcome& out) {
  const auto sym = an::SymmetryPolicy::forSystem(sys, spec.symmetry);
  const auto por = an::PorPolicy::forSystem(sys, spec.por);
  const bool symActive = !sym->trivial();
  const bool porActive = !por->trivial();
  auto memo = std::make_shared<an::AnalysisMemo>(sys);
  an::StateGraph target(sys, nullptr, nullptr, {}, memo);
  an::TransitionCache& cache = memo->transitions();
  const std::size_t taskCount = sys.allTasks().size();

  std::vector<const ioa::Action*> actions(taskCount, nullptr);
  std::vector<ioa::SystemState> successors;
  std::vector<std::size_t> successorTask;
  ioa::SystemState next;
  for (an::NodeId id = 0; id < g.size(); ++id) {
    const ioa::SystemState& s = g.state(id);
    successors.clear();
    successorTask.clear();
    const auto t0 = Clock::now();
    for (std::size_t ti = 0; ti < taskCount; ++ti) {
      actions[ti] = cache.step(s, ti, &next);
      if (actions[ti]) {
        successors.push_back(std::move(next));
        successorTask.push_back(ti);
      }
    }
    const auto t1 = Clock::now();
    out.probeStepNs += nsBetween(t0, t1);
    out.probeStepCalls += taskCount;

    std::uint64_t ample = ~std::uint64_t{0};
    if (porActive) {
      std::uint64_t enabled = 0;
      const auto a0 = Clock::now();
      ample = por->ampleMask(actions, &enabled);
      out.probeAmpleNs += nsBetween(a0, Clock::now());
      ++out.probeAmpleCalls;
    }
    for (std::size_t k = 0; k < successors.size(); ++k) {
      if (((ample >> successorTask[k]) & 1u) == 0) continue;
      if (symActive) {
        const auto c0 = Clock::now();
        auto canon = sym->canonicalize(successors[k]);
        out.probeCanonNs += nsBetween(c0, Clock::now());
        ++out.probeCanonCalls;
        if (canon) successors[k] = std::move(canon->state);
      }
      const auto i0 = Clock::now();
      target.intern(successors[k]);
      out.probeInternNs += nsBetween(i0, Clock::now());
      ++out.probeInternCalls;
    }
  }
}

}  // namespace

TracedOutcome runTracedJob(const JobSpec& spec, SpanLog& log,
                           std::uint64_t jobId, bool probe) {
  TracedOutcome out;
  boosting::obs::Registry reg;
  an::ExplorationPolicy policy;
  policy.threads = spec.threads;
  policy.metrics = &reg;

  const int job = log.open(probe ? "probed_job" : "job", -1, jobId);
  std::unique_ptr<ioa::System> sys;
  {
    ScopedSpan s(log, "ioa.build_system", job, jobId);
    sys = buildSystem(spec);
  }
  std::shared_ptr<const an::SymmetryPolicy> sym;
  std::shared_ptr<const an::PorPolicy> por;
  {
    ScopedSpan s(log, "policy.build", job, jobId);
    sym = an::SymmetryPolicy::forSystem(*sys, spec.symmetry);
    por = an::PorPolicy::forSystem(*sys, spec.por);
  }
  std::unique_ptr<an::StateGraph> g;
  {
    ScopedSpan s(log, "state_graph.build", job, jobId);
    g = std::make_unique<an::StateGraph>(*sys, sym, por);
  }
  auto va = std::make_unique<an::ValenceAnalyzer>(*g);
  va->setPolicy(policy);
  an::BivalenceResult biv;
  {
    ScopedSpan s(log, "bivalence", job, jobId);
    biv = an::findBivalentInitialization(*g, *va, policy);
  }
  out.statesExplored = g->size();
  bool safe = true;
  {
    ScopedSpan s(log, "safety_scan", job, jobId);
    for (an::NodeId node = 0; node < g->size() && safe; ++node) {
      safe = nodeIsSafe(*sys, g->state(node));
    }
  }
  const bool nullValent =
      std::any_of(biv.initializations.begin(), biv.initializations.end(),
                  [](const auto& init) { return init.valence == an::Valence::Null; });

  // When the scan finds a violation or an initialization is Null-valent,
  // neither construction applies; the comparison with the untraced report
  // then decides whether the library found the same.
  const bool constructive = safe && !nullValent;
  if (constructive && !biv.bivalent) {
    if (biv.adjacentOppositePair) {
      const auto& [a, b] = *biv.adjacentOppositePair;
      const int d = a.onesPrefix;
      out.bivalentOnesPrefix = a.onesPrefix;
      for (const an::InitializationOutcome* init : {&a, &b}) {
        const ioa::SystemState start =
            g->symmetryActive()
                ? an::canonicalInitialization(*sys, init->onesPrefix)
                : g->state(init->node);
        boosting::sim::RunResult rr;
        {
          ScopedSpan s(log, "gamma", job, jobId);
          rr = runGamma(*sys, start, {d}, &reg);
        }
        out.gammaSteps += rr.steps;
        if (undecided(rr)) {
          out.terminationViolation = true;
          out.construction = Construction::Lemma4;
          out.failed = {d};
          break;
        }
      }
    }
  } else if (constructive) {
    out.bivalentOnesPrefix = biv.bivalent->onesPrefix;
    an::HookSearchOutcome hs;
    {
      ScopedSpan s(log, "hook", job, jobId);
      hs = an::findHook(*g, *va, biv.bivalent->node, kHookMaxIterations, policy);
    }
    out.statesExplored = g->size();
    out.hookIterations = hs.iterations;
    if (!hs.fairCycle && hs.hook) {
      out.hookTasks = hs.hook->e.str() + "|" + hs.hook->ePrime.str();
      GammaPlan plan;
      {
        ScopedSpan s(log, "similarity", job, jobId);
        plan = planGamma(*sys, *g, *hs.hook);
      }
      const std::set<int> J =
          chooseFailureSet(*sys, plan.classification, spec.claim());
      boosting::sim::RunResult rr;
      {
        ScopedSpan s(log, "gamma", job, jobId);
        rr = runGamma(*sys, plan.start, J, &reg);
      }
      out.gammaSteps = rr.steps;
      if (undecided(rr)) {
        out.terminationViolation = true;
        out.construction = Construction::Gamma;
        out.failed = J;
      }
    }
  }

  an::TransitionCache::Stats cache = g->transitionStats();
  cache.enabledLookups += reg.value("explorer.cache.enabled_lookups");
  cache.enabledHits += reg.value("explorer.cache.enabled_hits");
  cache.applyLookups += reg.value("explorer.cache.apply_lookups");
  cache.applyHits += reg.value("explorer.cache.apply_hits");
  out.enabledLookups = cache.enabledLookups;
  out.enabledHits = cache.enabledHits;
  out.applyLookups = cache.applyLookups;
  out.applyHits = cache.applyHits;
  out.edges = g->stats().edgesDiscovered;
  out.dedupHits = g->stats().dedupHits;
  out.internCalls = g->stats().statesDiscovered + out.dedupHits;
  out.graphBytes = g->memoryStats().total();
  out.symmetryActive = g->symmetryActive();
  out.canonicalizeCalls = out.symmetryActive ? sym->statesRaw() : 0;
  out.orbitsCollapsed = out.symmetryActive ? sym->orbitsCollapsed() : 0;
  out.porActive = g->porActive();
  if (out.porActive) {
    out.porEvaluated = por->nodesEvaluated();
    out.porReduced = por->nodesReduced();
    out.porTasksSkipped = por->tasksSkipped();
  }
  if (probe) {
    // The probe needs the graph, so this job's span ends here and leaves
    // teardown out; its root is named apart from the timed "job" spans.
    log.close(job);
    probeEngineLayers(spec, *sys, *g, out);
    return out;
  }
  {
    // analyzeConsensusCandidate frees its graph before it returns, so the
    // untraced job time includes this.
    ScopedSpan s(log, "teardown", job, jobId);
    va.reset();
    g.reset();
    sym.reset();
    por.reset();
    sys.reset();
  }
  log.close(job);
  return out;
}

void TracedOutcome::addCounts(const TracedOutcome& o) {
  statesExplored += o.statesExplored;
  hookIterations += o.hookIterations;
  gammaSteps += o.gammaSteps;
  enabledHits += o.enabledHits;
  enabledLookups += o.enabledLookups;
  applyHits += o.applyHits;
  applyLookups += o.applyLookups;
  edges += o.edges;
  internCalls += o.internCalls;
  dedupHits += o.dedupHits;
  graphBytes += o.graphBytes;
  canonicalizeCalls += o.canonicalizeCalls;
  orbitsCollapsed += o.orbitsCollapsed;
  symmetryActive = symmetryActive || o.symmetryActive;
  porEvaluated += o.porEvaluated;
  porReduced += o.porReduced;
  porTasksSkipped += o.porTasksSkipped;
  porActive = porActive || o.porActive;
  probeStepCalls += o.probeStepCalls;
  probeStepNs += o.probeStepNs;
  probeCanonCalls += o.probeCanonCalls;
  probeCanonNs += o.probeCanonNs;
  probeAmpleCalls += o.probeAmpleCalls;
  probeAmpleNs += o.probeAmpleNs;
  probeInternCalls += o.probeInternCalls;
  probeInternNs += o.probeInternNs;
}

TracedOutcome outcomeOf(const an::AdversaryReport& report) {
  TracedOutcome out;
  out.terminationViolation =
      report.verdict == an::AdversaryReport::Verdict::TerminationViolation;
  if (report.hook && !report.fairCycle) {
    out.construction = Construction::Gamma;
    out.hookTasks = report.hook->e.str() + "|" + report.hook->ePrime.str();
  } else if (!report.bivalentInit && !report.witnessFailures.empty()) {
    out.construction = Construction::Lemma4;
  }
  out.failed = report.witnessFailures;
  out.statesExplored = report.statesExplored;
  return out;
}

std::string compareOutcomes(const TracedOutcome& traced,
                            const TracedOutcome& reference) {
  if (traced.terminationViolation != reference.terminationViolation ||
      traced.construction != reference.construction) {
    return "verdict differs from the untraced report";
  }
  if (traced.failed != reference.failed) return "failed set differs";
  if (traced.statesExplored != reference.statesExplored) {
    return "states explored differ: traced " +
           std::to_string(traced.statesExplored) + ", untraced " +
           std::to_string(reference.statesExplored);
  }
  if (traced.hookTasks != reference.hookTasks) return "hook tasks differ";
  return "";
}

ParallelProbe probeParallel(const JobSpec& spec, int onesPrefix,
                            unsigned threads, int reps) {
  const auto sys = buildSystem(spec);
  const auto sym = an::SymmetryPolicy::forSystem(*sys, spec.symmetry);
  const auto por = an::PorPolicy::forSystem(*sys, spec.por);
  const ioa::SystemState root = an::canonicalInitialization(*sys, onesPrefix);
  ParallelProbe p;
  p.reps = reps;
  std::vector<double> t1, tn;
  std::uint64_t steals = 0, expanded = 0;
  std::vector<double> imbalance, installWait, overlapped, spins;
  for (int r = 0; r < reps; ++r) {
    for (unsigned t : {1u, threads}) {
      an::StateGraph g(*sys, sym, por);
      const an::NodeId rootId = g.intern(root);
      an::ExplorationPolicy policy;
      policy.threads = t;
      const auto c0 = Clock::now();
      const an::ExploreStats st = an::exploreReachable(g, rootId, policy);
      const double ms = secondsBetween(c0, Clock::now()) * 1e3;
      if (t == 1) {
        t1.push_back(ms);
        p.statesT1 = g.size();
        continue;
      }
      tn.push_back(ms);
      p.statesTn = g.size();
      std::uint64_t maxExpanded = 0, sumExpanded = 0, idle = 0;
      for (const auto& w : st.perWorker) {
        maxExpanded = std::max(maxExpanded, w.expanded);
        sumExpanded += w.expanded;
        steals += w.steals;
        idle += w.idleSpins;
      }
      expanded += sumExpanded;
      spins.push_back(static_cast<double>(idle));
      if (sumExpanded > 0) {
        imbalance.push_back(static_cast<double>(maxExpanded) *
                            static_cast<double>(st.perWorker.size()) /
                            static_cast<double>(sumExpanded));
      }
      installWait.push_back(static_cast<double>(st.pipeline.installWaitNs) / 1e6);
      overlapped.push_back(static_cast<double>(st.pipeline.levelsOverlapped));
    }
  }
  p.msT1 = quantile(t1, 0.5);
  p.msTn = quantile(tn, 0.5);
  p.stealRatio = expanded ? static_cast<double>(steals) / static_cast<double>(expanded) : 0.0;
  p.idleSpins = static_cast<std::uint64_t>(quantile(spins, 0.5));
  p.workerImbalance = quantile(imbalance, 0.5);
  p.installWaitMs = quantile(installWait, 0.5);
  p.levelsOverlapped = static_cast<std::uint64_t>(quantile(overlapped, 0.5));
  return p;
}

}  // namespace perfbench

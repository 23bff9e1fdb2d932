#include "analysis/metrics.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/registry.h"

namespace boosting::analysis {

namespace {

// Shared /proc/self/status field reader: returns the kB value of `field`
// (e.g. "VmHWM:"), 0 when the file or field is unavailable.
std::uint64_t procStatusKb(const char* field) {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  const std::size_t fieldLen = std::strlen(field);
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f)) {
    if (std::strncmp(line, field, fieldLen) == 0) {
      kb = std::strtoull(line + fieldLen, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
#else
  (void)field;
  return 0;
#endif
}

}  // namespace

std::uint64_t peakRssBytes() {
  // VmHWM ("high water mark"): process-lifetime peak, monotone.
  return procStatusKb("VmHWM:") * 1024;
}

std::uint64_t currentRssBytes() {
  // VmRSS: the resident set right now, the basis for per-phase deltas.
  return procStatusKb("VmRSS:") * 1024;
}

void flushTransitionCacheMetrics(obs::Registry* reg,
                                 const TransitionCache::Stats& stats) {
  if (!reg) return;
  reg->add("cache.enabled_lookups", stats.enabledLookups);
  reg->add("cache.enabled_hits", stats.enabledHits);
  reg->add("cache.enabled_misses", stats.enabledMisses);
  reg->add("cache.apply_lookups", stats.applyLookups);
  reg->add("cache.apply_hits", stats.applyHits);
  reg->add("cache.apply_misses", stats.applyMisses);
}

void flushGraphMetrics(obs::Registry* reg, const StateGraph& g) {
  if (!reg) return;
  const StateGraph::Stats& gs = g.stats();
  reg->add("graph.states_discovered", gs.statesDiscovered);
  reg->add("graph.dedup_hits", gs.dedupHits);
  reg->add("graph.edges_discovered", gs.edgesDiscovered);
  reg->add("graph.expansions", gs.expansions);
  // Shallow footprint of the flat graph structures (see
  // StateGraph::MemoryStats) plus the process peak RSS, so bytes-per-state
  // is derivable from one metrics file.
  const StateGraph::MemoryStats ms = g.memoryStats();
  reg->add("graph.bytes_states", ms.bytesStates);
  reg->add("graph.bytes_edges", ms.bytesEdges);
  reg->add("graph.bytes_index", ms.bytesIndex);
  reg->maxOf("process.peak_rss_bytes", peakRssBytes());
  if (g.spillActive()) {
    // Cold-tier telemetry (see DESIGN.md "Out-of-core exploration"). All
    // four are logical-event tallies of the single-writer graph, so they
    // are deterministic; bytes_on_disk > 0 implies chunks_cold > 0 is a
    // validate_metrics.py invariant.
    const Pager::Stats ps = g.spillStats();
    reg->maxOf("graph.spill.chunks_cold", ps.chunksCold);
    reg->maxOf("graph.spill.bytes_on_disk", ps.bytesOnDisk);
    reg->maxOf("graph.spill.faults", ps.faults);
    reg->maxOf("graph.spill.evictions", ps.evictions);
  }
  if (g.symmetryActive()) {
    const SymmetryPolicy& sp = *g.symmetryPolicy();
    // Quotient telemetry: states_raw counts intern probes (pre-reduction),
    // states_canonical the distinct orbit representatives actually interned
    // (== graph.states_discovered), so canonical <= raw is an invariant
    // validate_metrics.py checks.
    reg->add("explorer.symmetry.states_raw", sp.statesRaw());
    reg->add("explorer.symmetry.orbits_collapsed", sp.orbitsCollapsed());
    reg->add("explorer.symmetry.states_canonical", gs.statesDiscovered);
  }
  if (g.porActive()) {
    const PorPolicy& pp = *g.porPolicy();
    // Ample-set telemetry: nodes_evaluated counts expansions that consulted
    // the policy, states_reduced (<= nodes_evaluated) those that committed a
    // proper ample subset, tasks_skipped (>= states_reduced) the enabled
    // tasks not expanded there. ample_avg is the mean ample/enabled fraction
    // in per-mille (<= 1000); all four invariants are checked by
    // validate_metrics.py.
    reg->add("explorer.por.nodes_evaluated", pp.nodesEvaluated());
    reg->add("explorer.por.states_reduced", pp.nodesReduced());
    reg->add("explorer.por.tasks_skipped", pp.tasksSkipped());
    reg->add("explorer.por.cycle_proviso_hits", pp.provisoHits());
    reg->add("explorer.por.declaration_violations",
             pp.declarationViolations());
    const std::uint64_t enabledSum = pp.enabledSum();
    // maxOf, not add: a second flush of the same policy must not push the
    // per-mille fraction past 1000.
    reg->maxOf("explorer.por.ample_avg",
               enabledSum == 0 ? 0 : pp.ampleSum() * 1000 / enabledSum);
  }
  flushTransitionCacheMetrics(reg, g.transitionStats());
}

void flushStatePerfDelta(obs::Registry* reg,
                         const ioa::StatePerfCounters& before,
                         const ioa::StatePerfCounters& after) {
  if (!reg) return;
  reg->add("state.copies", after.stateCopies - before.stateCopies);
  reg->add("state.slot_clones", after.slotClones - before.slotClones);
  reg->add("state.slot_hashes", after.slotHashes - before.slotHashes);
}

}  // namespace boosting::analysis

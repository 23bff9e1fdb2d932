// Exploration of the execution graph G(C).
//
// Every proof procedure in this reproduction -- valence classification
// (Section 3.2), the hook search of Lemma 5 / Fig. 3, and the full
// ConsensusAdversary pipeline -- reduces to BFS over G(C). They all run on
// the calling thread: a FIFO frontier over StateGraph::exploreSuccessors(),
// so node ids, intern indices, parents and witness paths are a function of
// the root alone. ExplorationPolicy carries what every exploration shares:
// the state cap, the metrics sink, the per-expansion hook (the service's
// cancellation checkpoint).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "analysis/state_graph.h"

namespace boosting::obs {
class Registry;
}  // namespace boosting::obs

namespace boosting::analysis {

struct ExplorationPolicy {
  // Safety valve: stop expanding once this many states have been
  // discovered (0 = unbounded). A truncated exploration is meant for
  // benchmarks and defensive limits, not for certificate-producing runs.
  std::size_t maxStates = 0;
  // Optional observability sink. Explorations keep plain local tallies and
  // flush them here only at phase boundaries, so a null registry costs
  // nothing on the hot path.
  obs::Registry* metrics = nullptr;
  // Invoked once per node expansion with the running expansion count. A
  // throwing hook aborts the exploration between whole-node expansions;
  // the StateGraph stays consistent (checkConsistent).
  std::function<void(std::size_t)> expansionHook;
  // Ignored: exploration is serial. Exists only for perfbench's parallel
  // probe, which still sets it; goes when a benchmark change drops that
  // probe.
  unsigned threads = 1;
};

struct ExploreStats {
  std::size_t statesDiscovered = 0;  // states reached from the root
  std::size_t edgesComputed = 0;     // transitions evaluated
  bool truncated = false;            // maxStates cap was hit
  std::uint64_t frontierPeak = 0;    // BFS queue high-water mark

  struct WorkerStats {
    std::uint64_t expanded = 0;
    std::uint64_t steals = 0;
    std::uint64_t idleSpins = 0;
  };
  struct PipelineStats {
    std::uint64_t levelsOverlapped = 0;
    std::uint64_t installWaitNs = 0;
  };
  // Always empty. Exists only for perfbench's parallel probe, which still
  // reads it; goes when a benchmark change drops that probe.
  std::vector<WorkerStats> perWorker;
  // Always zero. Exists only for perfbench's parallel probe, which still
  // reads it; goes when a benchmark change drops that probe.
  PipelineStats pipeline;
};

// BFS over the full reachable region of `root` (which must already be
// interned in `g`), through the reduced successor tier when a POR policy
// is active. Rethrows what the expansion hook throws, leaving every node
// it installed complete.
ExploreStats exploreReachable(StateGraph& g, NodeId root,
                              const ExplorationPolicy& policy = {});

}  // namespace boosting::analysis

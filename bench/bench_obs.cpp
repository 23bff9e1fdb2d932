// Observability overhead guard: the analyzer's hot loop (the bivalence
// region scan of bench_state_exploration) run three ways -- no registry
// attached (the production default for library callers), a registry
// attached (flush-at-phase-boundary cost), and a registry plus an
// expansion hook (the worst instrumented case the test seam allows). The
// acceptance bar for the obs layer is that the disabled case stays within
// noise (< 2%) of the uninstrumented baseline: engines keep plain local
// tallies and only touch the registry at phase boundaries, so a null
// Registry* must cost nothing per state. Results land in BENCH_obs.json
// (override with BENCH_JSON=path) so CI can diff the _disabled/_enabled
// pair.
#include <benchmark/benchmark.h>

#include "analysis/bivalence.h"
#include "analysis/explore.h"
#include "bench_json.h"
#include "obs/registry.h"
#include "processes/relay_consensus.h"

using namespace boosting;
using analysis::ExplorationPolicy;
using analysis::NodeId;
using analysis::StateGraph;

namespace {

std::unique_ptr<ioa::System> relay(int n, int f) {
  processes::RelaySystemSpec spec;
  spec.processCount = n;
  spec.objectResilience = f;
  spec.addScratchRegister = false;
  return processes::buildRelayConsensusSystem(spec);
}

// Same workload as bench_state_exploration's regionScan: explore the
// failure-free region of every canonical initialization on one shared
// StateGraph. `reg` distinguishes the disabled and enabled variants.
void regionScan(const ioa::System& sys, benchmark::State& state,
                obs::Registry* reg, bool withHook) {
  const int n = sys.processCount();
  std::size_t states = 0;
  std::int64_t expanded = 0;
  std::size_t hookCalls = 0;
  for (auto _ : state) {
    StateGraph g(sys);
    ExplorationPolicy policy;
    policy.metrics = reg;
    if (withHook) {
      policy.expansionHook = [&hookCalls](std::size_t) { ++hookCalls; };
    }
    for (int j = 0; j <= n; ++j) {
      NodeId root = g.intern(analysis::canonicalInitialization(sys, j));
      auto stats = analysis::exploreReachable(g, root, policy);
      expanded += static_cast<std::int64_t>(stats.statesDiscovered);
    }
    states = g.size();
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(expanded), benchmark::Counter::kIsRate);
  if (reg) {
    state.counters["counters_flushed"] =
        static_cast<double>(reg->counters().size());
  }
  benchmark::DoNotOptimize(hookCalls);
}

void BM_RegionScanObsDisabled(benchmark::State& state) {
  auto sys = relay(static_cast<int>(state.range(0)), 0);
  regionScan(*sys, state, nullptr, false);
}

void BM_RegionScanObsEnabled(benchmark::State& state) {
  auto sys = relay(static_cast<int>(state.range(0)), 0);
  obs::Registry reg;
  regionScan(*sys, state, &reg, false);
}

void BM_RegionScanObsEnabledWithHook(benchmark::State& state) {
  auto sys = relay(static_cast<int>(state.range(0)), 0);
  obs::Registry reg;
  regionScan(*sys, state, &reg, true);
}

// Registry primitive costs in isolation, for when the scan-level numbers
// need explaining: one counter bump and one scoped timer per iteration.
void BM_RegistryAdd(benchmark::State& state) {
  obs::Registry reg;
  for (auto _ : state) {
    reg.add("bench.counter", 1);
  }
  benchmark::DoNotOptimize(reg.value("bench.counter"));
}

void BM_ScopedTimerNullRegistry(benchmark::State& state) {
  for (auto _ : state) {
    obs::ScopedTimer t(nullptr, "bench.timer");
    benchmark::DoNotOptimize(t);
  }
}

void BM_ScopedTimerLiveRegistry(benchmark::State& state) {
  obs::Registry reg;
  for (auto _ : state) {
    obs::ScopedTimer t(&reg, "bench.timer");
    benchmark::DoNotOptimize(t);
  }
}

}  // namespace

BENCHMARK(BM_RegionScanObsDisabled)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RegionScanObsEnabled)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RegionScanObsEnabledWithHook)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RegistryAdd);
BENCHMARK(BM_ScopedTimerNullRegistry);
BENCHMARK(BM_ScopedTimerLiveRegistry);

int main(int argc, char** argv) {
  return boosting::benchjson::runBenchmarks(argc, argv, "BENCH_obs.json");
}

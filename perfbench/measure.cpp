// perfbench_measure: measures one workload of the end-to-end benchmark and
// prints one JSON line with its metrics. perfbench/run.py builds it, runs
// it, adds the host context and formats the report.
//
//   perfbench_measure --workload NAME --seed N --seconds S --trace 0|1
//                    --served PATH --out-dir DIR
//
// With --trace 0 it measures the end-to-end metrics with no tracing at
// all; with --trace 1 it runs the separate traced run that gives the
// per-layer metrics (spans are written to DIR when the run ends).
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "perfbench.h"
#include "serve/wire.h"
#include "served.h"

namespace {

using namespace perfbench;
namespace an = boosting::analysis;

// The parallel engine's worker count in relay-full's traced run: the
// benchmark host's core count (4 vCPUs). A change that removes the engine
// changes this line.
constexpr unsigned kParallelThreads = 4;

struct CliWorkload {
  const char* name;
  JobSpec spec;
  // Worker count of the traced run's parallel-engine probe; 0 = no probe.
  unsigned parallelProbeThreads = 0;
};

// The two CLI-equivalent workloads: relay n=6 f=1 in the shipped default
// configuration, and with no reduction at all. Both run one thread. Jobs
// that keep every vCPU busy are not end-to-end workloads: on a shared host,
// steal spreads their timings past any usable bound (see README.md). The
// parallel engine is measured by relay-full's traced run instead.
std::vector<CliWorkload> cliWorkloads() {
  const JobSpec relay{"relay", 5, 1, an::SymmetryMode::Auto, an::PorMode::Auto, 1};
  JobSpec full = relay;
  full.symmetry = an::SymmetryMode::Off;
  full.por = an::PorMode::Off;
  return {{"relay-sym", relay, 0}, {"relay-full", full, kParallelThreads}};
}

constexpr const char* kServedMix = "served-mix";
// setup_s is the median of many set-ups: kCliSetups before every CLI job,
// scaled by the host gauge like the job; for served-mix, kServedSetups idle
// server spawns after the run.
constexpr int kCliSetups = 5;
constexpr int kServedSetups = 40;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string served;
  std::string outDir = ".";
};

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string error;  // first failure, for the report
  MetricSet metrics;
};

void put(MetricSet& m, const std::string& name, double value, const char* unit,
         std::size_t samples, bool applies = true) {
  m[name] = Metric{applies ? value : 0.0, unit, applies ? samples : 0, applies};
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void noteFailure(Outcome& out, const std::string& why) {
  ++out.failed;
  if (out.error.empty()) out.error = why;
}

// setup_s for a CLI job: what has to exist before analysis can start --
// the candidate System and the reduction policies.
void timeCliSetups(const JobSpec& spec, std::vector<double>& samples) {
  for (int i = 0; i < kCliSetups; ++i) {
    const auto t0 = Clock::now();
    auto sys = buildSystem(spec);
    auto sym = an::SymmetryPolicy::forSystem(*sys, spec.symmetry);
    auto por = an::PorPolicy::forSystem(*sys, spec.por);
    samples.push_back(secondsBetween(t0, Clock::now()));
  }
}

struct CliJob {
  double latencyS = 0.0;
  an::AdversaryReport report;
};

// One CLI-equivalent job: a fresh System, then the whole pipeline.
CliJob runCliJob(const JobSpec& spec) {
  const auto t0 = Clock::now();
  auto sys = buildSystem(spec);
  CliJob job;
  job.report = an::analyzeConsensusCandidate(*sys, cliConfig(spec));
  job.latencyS = secondsBetween(t0, Clock::now());
  return job;
}

std::string gateCliReport(const JobSpec& spec, const an::AdversaryReport& r) {
  const TracedOutcome o = outcomeOf(r);
  return checkVerdict(spec, o.terminationViolation, o.construction,
                      r.witnessFailures, r.witness);
}

// What a timed run measured. With gauge readings, the times are scaled to
// the gauge's reference speed (see perfbench.h) and the raw ones are as
// measured; without, the times are as measured and there are no raw ones.
struct TimedSamples {
  std::vector<double> latencyS, rawLatencyS;  // per timed job
  std::vector<double> setupS, rawSetupS;      // per set-up
  std::vector<double> gaugeS;                 // every gauge reading
  double busyS = 0.0, rawBusyS = 0.0;         // sums of the job times
  double cpuS = 0.0, rawCpuS = 0.0;           // CPU time of the jobs
  std::size_t verdicts = 0;                   // timed jobs that passed the gate
};

// The end-to-end metrics every workload reports, the two printed alongside
// them (verdict_s.p90 needs ten samples beyond it; failed_ratio is the
// gate's outcome), and for a scaled run the unscaled times with the gauge
// readings behind the scaling.
void putEndToEnd(Outcome& out, const TimedSamples& t, double rssMb) {
  MetricSet& m = out.metrics;
  const double verdicts = static_cast<double>(t.verdicts);
  const std::size_t n = t.latencyS.size();
  put(m, "verdict_s.p50", quantile(t.latencyS, 0.5), "s", n);
  put(m, "verdict_s.p90", quantile(t.latencyS, 0.9), "s", n, n >= 100);
  put(m, "verdicts_per_min", ratio(60.0 * verdicts, t.busyS), "1/min", t.verdicts);
  put(m, "cpu_s_per_verdict", ratio(t.cpuS, verdicts), "s", t.verdicts);
  put(m, "peak_rss_mb", rssMb, "MiB", 1);
  put(m, "setup_s", quantile(t.setupS, 0.5), "s", t.setupS.size());
  put(m, "failed_ratio",
      ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)),
      "ratio", out.attempted);
  if (!t.gaugeS.empty()) {
    put(m, "raw.verdict_s.p50", quantile(t.rawLatencyS, 0.5), "s", n);
    put(m, "raw.verdicts_per_min", ratio(60.0 * verdicts, t.rawBusyS), "1/min", t.verdicts);
    put(m, "raw.cpu_s_per_verdict", ratio(t.rawCpuS, verdicts), "s", t.verdicts);
    put(m, "raw.setup_s", quantile(t.rawSetupS, 0.5), "s", t.rawSetupS.size());
    put(m, "raw.gauge_s.p50", quantile(t.gaugeS, 0.5), "s", t.gaugeS.size());
  }
}

Outcome timedCli(const JobSpec& spec, double seconds) {
  Outcome out;
  // The first job in a process faults its heap in; it is checked, not timed.
  const CliJob warmup = runCliJob(spec);
  ++out.attempted;
  std::string why = gateCliReport(spec, warmup.report);
  if (!why.empty()) noteFailure(out, why);
  std::size_t states = warmup.report.statesExplored;

  struct Sample {
    double latencyS, cpuS;
    std::vector<double> setupS;
    std::size_t window;
  };
  std::vector<Sample> samples;
  TimedSamples t;
  GaugedWindows gauge;
  const auto start = Clock::now();
  while (samples.empty() || secondsBetween(start, Clock::now()) < seconds) {
    Sample s;
    s.window = gauge.window();
    timeCliSetups(spec, s.setupS);
    const double cpu0 = selfCpuSeconds();
    const CliJob job = runCliJob(spec);
    s.cpuS = selfCpuSeconds() - cpu0;
    s.latencyS = job.latencyS;
    samples.push_back(std::move(s));
    ++out.attempted;
    why = gateCliReport(spec, job.report);
    if (why.empty()) {
      ++t.verdicts;
    } else {
      noteFailure(out, why);
    }
    states = job.report.statesExplored;
    gauge.maybeRead();
  }
  gauge.finish();
  t.gaugeS = gauge.readings();
  for (const Sample& s : samples) {
    const double k = gauge.factor(s.window);
    for (double x : s.setupS) {
      t.rawSetupS.push_back(x);
      t.setupS.push_back(x * k);
    }
    t.rawLatencyS.push_back(s.latencyS);
    t.latencyS.push_back(s.latencyS * k);
    t.rawBusyS += s.latencyS;
    t.busyS += s.latencyS * k;
    t.rawCpuS += s.cpuS;
    t.cpuS += s.cpuS * k;
  }
  putEndToEnd(out, t, peakRssMb());
  put(out.metrics, "states_explored", static_cast<double>(states), "count", 1);
  return out;
}

// Keeps this process, and the server it spawns from now on, on one vCPU:
// the last one it may use, so that every run gets the same one. With one
// job in flight, the client, the server's tick loop and its worker then
// take turns on one busy vCPU. Spread over several vCPUs, every 1 ms tick
// and every hand-off between them could wake a halted vCPU through the
// hypervisor, and served-mix's median latency followed the host's steal
// share: 20 ms at 0.5% steal, 28 ms at 7%, in the same ten-run set.
void pinToOneCpu() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) last = cpu;
  }
  if (last < 0) return;
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  sched_setaffinity(0, sizeof set, &set);
}

Outcome timedServed(const Args& a) {
  pinToOneCpu();
  Outcome out;
  ServedOptions opt;
  opt.servedPath = a.served;
  opt.seed = a.seed;
  opt.seconds = a.seconds;
  opt.warmup = true;
  const ServedRun run = runServedMix(opt);
  out.attempted = run.attempted;
  out.failed = run.failed;
  out.error = !run.error.empty() ? run.error : run.firstFailure;
  if (!run.error.empty()) out.failed = std::max<std::size_t>(out.failed, 1);

  // Not scaled: the jobs run in the server, while the gauge could only run
  // here, in the client. Scaled, served-mix's run-to-run spreads of both
  // the job times and the set-ups came out wider, not narrower (see
  // README.md).
  TimedSamples t;
  for (const ServedResult& r : run.results) {
    if (r.warmup) continue;
    t.latencyS.push_back(r.latencyS);
    t.busyS += r.latencyS;
    if (r.passed) ++t.verdicts;
  }
  t.cpuS = run.cpuS;
  for (int i = 0; i < kServedSetups; ++i) {
    std::string err;
    const double s = timeServerSetup(a.served, &err);
    if (s < 0) {
      noteFailure(out, err);
      break;
    }
    t.setupS.push_back(s);
  }
  putEndToEnd(out, t, run.peakRssMb);
  return out;
}

// -- Traced run ----------------------------------------------------------------

struct PhaseTimes {
  std::map<std::string, std::int64_t> selfNs;  // by span name, all jobs
  std::int64_t jobNs = 0;
  std::vector<double> jobMs;
  std::vector<double> buildMs;
};

// Self times of the phases under the timed "job" roots.
PhaseTimes phaseTimes(const SpanLog& log) {
  PhaseTimes t;
  const auto& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int id = static_cast<int>(i);
    if (spans[i].parent < 0) {
      if (spans[i].name != "job") continue;
      t.jobNs += log.totalNs(id);
      t.jobMs.push_back(static_cast<double>(log.totalNs(id)) / 1e6);
    } else if (spans[spans[i].parent].name == "job") {
      t.selfNs[spans[i].name] += log.selfNs(id);
      if (spans[i].name == "ioa.build_system") {
        t.buildMs.push_back(static_cast<double>(log.totalNs(id)) / 1e6);
      }
    }
  }
  return t;
}

// Per-layer metrics of the engine and the proof phases, from traced jobs
// (`eng` sums the counts of the probed jobs, `jobs` is how many traced
// jobs the phase spans cover).
void putLayers(MetricSet& m, const TracedOutcome& eng, const PhaseTimes& t,
               std::size_t jobs, std::size_t probedJobs) {
  const double perJob = 1.0 / static_cast<double>(jobs ? jobs : 1);
  put(m, "ioa.build_system_ms", quantile(t.buildMs, 0.5), "ms", t.buildMs.size());
  for (const char* phase : {"bivalence", "safety_scan", "hook", "similarity", "gamma"}) {
    const auto it = t.selfNs.find(phase);
    const double ns = it == t.selfNs.end() ? 0.0 : static_cast<double>(it->second);
    put(m, std::string(phase) + ".ms", ns / 1e6 * perJob, "ms", jobs);
    put(m, std::string(phase) + ".share", ratio(ns, static_cast<double>(t.jobNs)),
        "ratio", jobs);
  }
  const double probed = static_cast<double>(probedJobs ? probedJobs : 1);
  put(m, "hook.iterations", static_cast<double>(eng.hookIterations) / probed,
      "count", probedJobs);
  put(m, "gamma.steps", static_cast<double>(eng.gammaSteps) / probed, "count",
      probedJobs);

  const auto states = static_cast<double>(eng.statesExplored);
  put(m, "transition_cache.step_calls", static_cast<double>(eng.enabledLookups), "count", 1);
  put(m, "transition_cache.step_ns_per_call",
      ratio(static_cast<double>(eng.probeStepNs), static_cast<double>(eng.probeStepCalls)),
      "ns", eng.probeStepCalls);
  put(m, "transition_cache.probes_per_state",
      ratio(static_cast<double>(eng.enabledLookups + eng.applyLookups), states),
      "probes/state", 1);
  put(m, "transition_cache.enabled_hit_ratio",
      ratio(static_cast<double>(eng.enabledHits), static_cast<double>(eng.enabledLookups)),
      "ratio", eng.enabledLookups);
  put(m, "transition_cache.apply_hit_ratio",
      ratio(static_cast<double>(eng.applyHits), static_cast<double>(eng.applyLookups)),
      "ratio", eng.applyLookups);

  put(m, "state_graph.states", states, "count", 1);
  put(m, "state_graph.edges", static_cast<double>(eng.edges), "count", 1);
  put(m, "state_graph.intern_calls", static_cast<double>(eng.internCalls), "count", 1);
  put(m, "state_graph.intern_ns_per_call",
      ratio(static_cast<double>(eng.probeInternNs), static_cast<double>(eng.probeInternCalls)),
      "ns", eng.probeInternCalls);
  put(m, "state_graph.dedup_ratio",
      ratio(static_cast<double>(eng.dedupHits), static_cast<double>(eng.internCalls)),
      "ratio", eng.internCalls);
  put(m, "state_graph.bytes_per_state", ratio(static_cast<double>(eng.graphBytes), states),
      "B", 1);

  const bool sym = eng.symmetryActive;
  put(m, "symmetry.canonicalize_calls", static_cast<double>(eng.canonicalizeCalls),
      "count", 1);
  put(m, "symmetry.canonicalize_ns_per_call",
      ratio(static_cast<double>(eng.probeCanonNs), static_cast<double>(eng.probeCanonCalls)),
      "ns", eng.probeCanonCalls, sym);
  put(m, "symmetry.collapse_ratio",
      ratio(static_cast<double>(eng.orbitsCollapsed), static_cast<double>(eng.canonicalizeCalls)),
      "ratio", eng.canonicalizeCalls, sym);

  const bool por = eng.porActive;
  put(m, "por.ample_calls", static_cast<double>(eng.porEvaluated), "count", 1);
  put(m, "por.ample_ns_per_call",
      ratio(static_cast<double>(eng.probeAmpleNs), static_cast<double>(eng.probeAmpleCalls)),
      "ns", eng.probeAmpleCalls, por);
  put(m, "por.reduced_ratio",
      ratio(static_cast<double>(eng.porReduced), static_cast<double>(eng.porEvaluated)),
      "ratio", eng.porEvaluated, por);
  put(m, "por.tasks_skipped", static_cast<double>(eng.porTasksSkipped), "count", 1, por);
}

void putParallel(MetricSet& m, const ParallelProbe* p) {
  const bool on = p != nullptr;
  const ParallelProbe z;
  const ParallelProbe& v = on ? *p : z;
  const auto n = static_cast<std::size_t>(v.reps);
  put(m, "parallel_explorer.explore_ms_t1", v.msT1, "ms", n, on);
  put(m, "parallel_explorer.explore_ms_t4", v.msTn, "ms", n, on);
  put(m, "parallel_explorer.speedup", ratio(v.msT1, v.msTn), "x", n, on);
  put(m, "parallel_explorer.steal_ratio", v.stealRatio, "ratio", n, on);
  put(m, "parallel_explorer.idle_spins", static_cast<double>(v.idleSpins), "count", n, on);
  put(m, "parallel_explorer.worker_imbalance", v.workerImbalance, "x", n, on);
  put(m, "parallel_explorer.install_wait_ms", v.installWaitMs, "ms", n, on);
  put(m, "parallel_explorer.levels_overlapped", static_cast<double>(v.levelsOverlapped),
      "count", n, on);
}

void putServe(MetricSet& m, const ServedRun* run, const SpanLog* log,
              double parseNsPerLine) {
  const bool on = run != nullptr;
  std::vector<double> queueMs, wallMs;
  double warm = 0, bypass = 0, total = 0;
  if (on) {
    for (std::size_t i = 0; i < log->spans().size(); ++i) {
      if (log->spans()[i].name == "served.job") {
        queueMs.push_back(static_cast<double>(log->selfNs(static_cast<int>(i))) / 1e6);
      }
    }
    for (const ServedResult& r : run->results) {
      wallMs.push_back(r.wallMs);
      warm += r.cache == "warm";
      bypass += r.cache == "bypass";
      total += 1;
    }
  }
  const auto n = static_cast<std::size_t>(total);
  put(m, "serve.queue_wait_ms.p50", quantile(queueMs, 0.5), "ms", queueMs.size(), on);
  put(m, "serve.job_wall_ms.p50", quantile(wallMs, 0.5), "ms", n, on);
  put(m, "serve.cache.warm_ratio", ratio(warm, total), "ratio", n, on);
  put(m, "serve.cache.bypass_ratio", ratio(bypass, total), "ratio", n, on);
  put(m, "serve.wire.parse_ns_per_line", parseNsPerLine, "ns", on ? run->requestLines.size() : 0, on);
}

void finishTrace(Outcome& out, const SpanLog& log, const Args& a) {
  const std::string why = log.check();
  if (!why.empty()) noteFailure(out, "span tree check: " + why);
  const std::string path =
      a.outDir + "/spans-" + a.workload + "-seed" + std::to_string(a.seed) + ".jsonl";
  if (!log.writeJsonl(path)) noteFailure(out, "cannot write " + path);
}

Outcome tracedCli(const CliWorkload& w, const Args& a) {
  const JobSpec& spec = w.spec;
  Outcome out;
  SpanLog log;
  // Untraced reference jobs alternate with traced ones, so both see the
  // same host conditions; the rest of the budget goes to the probes, which
  // run after the last traced job.
  std::vector<double> untraced;
  std::vector<TracedOutcome> traced;
  const auto start = Clock::now();
  while (untraced.size() < 2 || secondsBetween(start, Clock::now()) < a.seconds * 0.6) {
    CliJob job = runCliJob(spec);
    ++out.attempted;
    const std::string gate = gateCliReport(spec, job.report);
    if (!gate.empty()) noteFailure(out, gate);
    untraced.push_back(job.latencyS);
    traced.push_back(runTracedJob(spec, log, traced.size(), false));
    ++out.attempted;
    const std::string why = compareOutcomes(traced.back(), outcomeOf(job.report));
    if (!why.empty()) noteFailure(out, "traced job: " + why);
  }
  // One more traced job carries the engine-layer probe, which walks its
  // graph after the job span has closed.
  const TracedOutcome probed = runTracedJob(spec, log, traced.size(), true);
  ++out.attempted;
  const std::string why = compareOutcomes(probed, traced.front());
  if (!why.empty()) noteFailure(out, "probed job: " + why);
  const PhaseTimes t = phaseTimes(log);
  putLayers(out.metrics, probed, t, t.jobMs.size(), 1);
  put(out.metrics, "trace.overhead_ratio",
      ratio(quantile(t.jobMs, 0.5) / 1e3, quantile(untraced, 0.5)), "ratio",
      t.jobMs.size());
  if (w.parallelProbeThreads > 1) {
    const ParallelProbe p = probeParallel(spec, probed.bivalentOnesPrefix,
                                          w.parallelProbeThreads, 2);
    if (p.statesT1 != p.statesTn) {
      noteFailure(out, "parallel exploration found a different region");
    }
    putParallel(out.metrics, &p);
  } else {
    putParallel(out.metrics, nullptr);
  }
  putServe(out.metrics, nullptr, nullptr, 0.0);
  finishTrace(out, log, a);
  return out;
}

Outcome tracedServed(const Args& a) {
  Outcome out;
  SpanLog log;
  // Two fresh servers: one untraced, one recording a span per job, so the
  // overhead ratio compares equally warm caches.
  ServedOptions opt;
  opt.servedPath = a.served;
  opt.seed = a.seed;
  opt.seconds = a.seconds * 0.3;
  const ServedRun plain = runServedMix(opt);
  opt.log = &log;
  opt.firstJobId = 1000;
  const ServedRun traced = runServedMix(opt);
  for (const ServedRun* r : {&plain, &traced}) {
    out.attempted += r->attempted;
    out.failed += r->failed;
    if (!r->error.empty()) noteFailure(out, r->error);
    if (out.error.empty()) out.error = r->firstFailure;
  }

  // The engine layers of each spec in the mix: one traced, probed job per
  // spec, checked against the library's own report and the server's.
  TracedOutcome eng;
  const std::vector<JobSpec> specs = servedMixSpecs();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const CliJob ref = runCliJob(specs[i]);
    ++out.attempted;
    const std::string gate = gateCliReport(specs[i], ref.report);
    if (!gate.empty()) noteFailure(out, specs[i].label() + ": " + gate);
    const TracedOutcome timed = runTracedJob(specs[i], log, 2 * i, false);
    const TracedOutcome o = runTracedJob(specs[i], log, 2 * i + 1, true);
    out.attempted += 2;
    std::string why = compareOutcomes(timed, outcomeOf(ref.report));
    if (why.empty()) why = compareOutcomes(o, timed);
    for (const ServedResult& r : traced.results) {
      if (r.mixIndex == i && r.states != o.statesExplored) {
        why = "served states differ from the traced pipeline";
      }
    }
    if (!why.empty()) noteFailure(out, specs[i].label() + ": traced job: " + why);
    eng.addCounts(o);
  }
  const PhaseTimes t = phaseTimes(log);
  putLayers(out.metrics, eng, t, t.jobMs.size(), specs.size());

  std::vector<double> plainLatency, tracedLatency;
  for (const ServedResult& r : plain.results) plainLatency.push_back(r.latencyS);
  for (const ServedResult& r : traced.results) tracedLatency.push_back(r.latencyS);
  put(out.metrics, "trace.overhead_ratio",
      ratio(quantile(tracedLatency, 0.5), quantile(plainLatency, 0.5)), "ratio",
      tracedLatency.size());

  // The server parses exactly these lines; time the same parser on them.
  constexpr int kParseReps = 50;
  boosting::serve::WireObject o;
  std::string err;
  std::size_t parsed = 0;
  const auto p0 = Clock::now();
  for (int rep = 0; rep < kParseReps; ++rep) {
    for (const std::string& line : traced.requestLines) {
      parsed += boosting::serve::parseWireObject(line, &o, &err) ? 1 : 0;
    }
  }
  const double parseNs = secondsBetween(p0, Clock::now()) * 1e9;
  if (parsed != traced.requestLines.size() * kParseReps) {
    noteFailure(out, "a generated request line does not parse");
  }
  putParallel(out.metrics, nullptr);
  putServe(out.metrics, &traced, &log, ratio(parseNs, static_cast<double>(parsed)));
  finishTrace(out, log, a);
  return out;
}

// -- Output --------------------------------------------------------------------

std::string jsonString(const std::string& s) { return boosting::serve::quoteJson(s); }

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? "" : line.substr(colon + 2);
    }
  }
  return "unknown";
}

void printResult(const Outcome& out) {
  std::printf("{\"attempted\":%zu,\"failed\":%zu,\"error\":%s,", out.attempted,
              out.failed, jsonString(out.error).c_str());
  std::printf("\"host\":{\"nproc\":%ld,\"cpu_model\":%s,\"build_type\":%s,"
              "\"compiler\":%s},",
              sysconf(_SC_NPROCESSORS_ONLN), jsonString(cpuModel()).c_str(),
              jsonString(PERFBENCH_BUILD_TYPE).c_str(),
              jsonString(PERFBENCH_COMPILER).c_str());
  std::printf("\"metrics\":{");
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    std::printf("%s%s:{\"value\":%.17g,\"unit\":%s,\"samples\":%zu,\"applies\":%s}",
                first ? "" : ",", jsonString(name).c_str(), m.value,
                jsonString(m.unit).c_str(), m.samples, m.applies ? "true" : "false");
    first = false;
  }
  std::printf("}}\n");
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_measure: %s\nusage: perfbench_measure --workload NAME "
               "--seed N --seconds S --trace 0|1 --served PATH --out-dir DIR\n",
               why);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage("missing value");
    const std::string flag = argv[i];
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        a.trace = v == "1";
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      } else if (flag == "--served") {
        a.served = v;
      } else if (flag == "--out-dir") {
        a.outDir = v;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parseArgs(argc, argv);
  Outcome out;
  try {
    if (a.workload == kServedMix) {
      if (a.served.empty()) usage("served-mix needs --served");
      out = a.trace ? tracedServed(a) : timedServed(a);
    } else {
      bool known = false;
      for (const CliWorkload& w : cliWorkloads()) {
        if (a.workload != w.name) continue;
        known = true;
        out = a.trace ? tracedCli(w, a) : timedCli(w.spec, a.seconds);
      }
      if (!known) usage(("unknown workload " + a.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_measure: %s\n", e.what());
    return 1;
  }
  printResult(out);
  return 0;
}

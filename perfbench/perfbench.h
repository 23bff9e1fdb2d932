// Shared pieces of the end-to-end benchmark's measuring binary: metric
// records, the in-memory span log of the traced run, the correctness gate
// every verdict passes, and the traced phase pipeline with its
// engine-layer probe.
//
// Everything here sits OUTSIDE the library: spans are recorded around
// calls into the library's public entry points, never inside them.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/adversary.h"
#include "ioa/execution.h"
#include "ioa/system.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// -- Metrics ---------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // observations behind the value
  bool applies = true;      // false: the workload does not exercise it
};

// Ordered by name so every run prints the same layout.
using MetricSet = std::map<std::string, Metric>;

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> xs, double q);

// Process-lifetime peak RSS (VmHWM) of `pid` (0 = self), in MiB.
double peakRssMb(int pid = 0);

// User + system CPU seconds of this process, all threads.
double selfCpuSeconds();

// User + system CPU seconds of a running child, from /proc; -1 if unreadable.
double cpuSecondsOf(int pid);

// -- Host-speed gauge ------------------------------------------------------------
//
// The benchmark host is a few vCPUs of a shared machine whose speed drifts
// by tens of percent over minutes as its neighbours' load changes; the
// same job then takes visibly longer in one run than in the next. The
// gauge is a fixed piece of work owned by the benchmark (never by the
// program under test): hash-map inserts with small vector payloads and
// lookups over a working set beyond L2, the kind of work the engine's
// interning does. A CLI timed run reads it before its first job, after
// every job that ends kGaugeEveryS or more after the last reading, and
// after its last job, and scales every time measured between two readings
// by kGaugeRefS over their mean: the reported times are seconds at the
// speed at which one reading takes kGaugeRefS. Raw times are reported
// alongside. See README.md, "Noise and bounds".
constexpr double kGaugeRefS = 0.25;
constexpr double kGaugeEveryS = 2.0;

// Runs the gauge once and returns its wall time in seconds.
double gaugeSeconds();

class GaugedWindows {
 public:
  GaugedWindows() { read(); }
  // The window a time measured now belongs to.
  std::size_t window() const { return readings_.size() - 1; }
  // Call between jobs: reads the gauge once the window has lasted long
  // enough.
  void maybeRead() {
    if (secondsBetween(last_, Clock::now()) >= kGaugeEveryS) read();
  }
  // Closes the last window; call once, after the last job.
  void finish() { read(); }
  // Scale of a time measured in window w, after finish().
  double factor(std::size_t w) const {
    return 2.0 * kGaugeRefS / (readings_[w] + readings_[w + 1]);
  }
  const std::vector<double>& readings() const { return readings_; }

 private:
  void read() {
    readings_.push_back(gaugeSeconds());
    last_ = Clock::now();
  }

  std::vector<double> readings_;
  Clock::time_point last_;
};

// -- Workload definitions ----------------------------------------------------

// One analysis job as the CLI runs it: a candidate spec plus the
// boosting_analyze defaults that matter for the engine.
struct JobSpec {
  std::string candidate;
  int n = 0;
  int f = 0;
  boosting::analysis::SymmetryMode symmetry =
      boosting::analysis::SymmetryMode::Auto;
  boosting::analysis::PorMode por = boosting::analysis::PorMode::Auto;
  unsigned threads = 1;

  int claim() const { return f + 1; }
  std::string label() const;
};

// The AdversaryConfig boosting_analyze builds for `spec` (its defaults are
// symmetry=auto, por=auto, exemptFailureAware=true; the library's own
// defaults differ, so every field that matters is set here).
boosting::analysis::AdversaryConfig cliConfig(const JobSpec& spec);

// Build the candidate System through the factory both front ends share;
// throws std::runtime_error on an unknown candidate.
std::unique_ptr<boosting::ioa::System> buildSystem(const JobSpec& spec);

// -- Correctness gate ----------------------------------------------------------

// Which construction produced a termination verdict: the gamma run of
// Lemmas 6-8 fails f+1 processes, the Lemma-4 adjacent-pair construction
// fails exactly one.
enum class Construction { Gamma, Lemma4, Other };

// Checks one verdict: it is a termination violation whose failed set has
// the size the construction requires, and whose witness replays action by
// action (each locally controlled action enabled, inputs and failures
// applied as environment steps) on a freshly built System, ending with a
// correct process that has an input and has not decided. Returns an empty
// string on success, otherwise the reason.
std::string checkVerdict(const JobSpec& spec, bool terminationViolation,
                         Construction construction,
                         const std::set<int>& failed,
                         const boosting::ioa::Execution& witness);

// -- Spans -------------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t startNs = 0;  // since the log's epoch
  std::int64_t endNs = 0;
  int parent = -1;           // index into the log, -1 for a root
  std::uint64_t job = 0;
};

// In-memory span log; written out once, when the run ends.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  std::int64_t now() const;
  int open(std::string name, int parent, std::uint64_t job);
  void close(int span);
  // A span whose bounds were measured elsewhere (e.g. the server's own
  // job wall time, placed at the end of the client-observed interval).
  int add(std::string name, int parent, std::uint64_t job,
          std::int64_t startNs, std::int64_t endNs);

  const std::vector<Span>& spans() const { return spans_; }
  // Self time: duration minus the durations of the direct children.
  std::int64_t selfNs(int span) const;
  std::int64_t totalNs(int span) const {
    return spans_[span].endNs - spans_[span].startNs;
  }

  // Tree checks: every span is closed, lies inside its parent's interval,
  // its children together take no longer than it does (self >= 0), and per
  // tree the self times add up to the root's total. Empty string = pass.
  std::string check() const;

  bool writeJsonl(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, int parent, std::uint64_t job)
      : log_(log), id_(log.open(std::move(name), parent, job)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

// -- Traced pipeline -----------------------------------------------------------

// What a traced job found, for comparison with the untraced report.
struct TracedOutcome {
  bool terminationViolation = false;
  Construction construction = Construction::Other;
  std::set<int> failed;
  std::size_t statesExplored = 0;
  std::string hookTasks;  // "e|e'" or "" when no hook was found
  std::size_t hookIterations = 0;
  std::size_t gammaSteps = 0;
  int bivalentOnesPrefix = -1;  // the region the parallel probe explores

  // Engine tallies of the job itself (real exploration, not the probe).
  // Every TransitionCache::step makes exactly one enabled lookup.
  std::uint64_t enabledHits = 0;
  std::uint64_t enabledLookups = 0;
  std::uint64_t applyHits = 0;
  std::uint64_t applyLookups = 0;
  std::uint64_t edges = 0;
  std::uint64_t internCalls = 0;  // StateGraph intern probes
  std::uint64_t dedupHits = 0;    // probes that found an existing node
  std::uint64_t graphBytes = 0;
  std::uint64_t canonicalizeCalls = 0;
  std::uint64_t orbitsCollapsed = 0;
  bool symmetryActive = false;
  std::uint64_t porEvaluated = 0;
  std::uint64_t porReduced = 0;
  std::uint64_t porTasksSkipped = 0;
  bool porActive = false;

  // Engine-layer probe over the job's explored graph.
  std::uint64_t probeStepCalls = 0;
  std::uint64_t probeStepNs = 0;
  std::uint64_t probeCanonCalls = 0;
  std::uint64_t probeCanonNs = 0;
  std::uint64_t probeAmpleCalls = 0;
  std::uint64_t probeAmpleNs = 0;
  std::uint64_t probeInternCalls = 0;
  std::uint64_t probeInternNs = 0;

  // Adds the counts of `o` (the served mix sums over its specs).
  void addCounts(const TracedOutcome& o);
};

// Runs one job through the pipeline's public phase functions in
// analyzeConsensusCandidate's order, with a span around each phase under
// a root "job" span, teardown included. With `probe`, the root is named
// "probed_job" and ends before teardown; afterwards the job's explored
// graph is walked on a fresh memo to time the engine-layer calls.
TracedOutcome runTracedJob(const JobSpec& spec, SpanLog& log,
                           std::uint64_t jobId, bool probe);

// Result shape of an untraced job, in the same terms.
TracedOutcome outcomeOf(const boosting::analysis::AdversaryReport& report);

// Empty when the traced and untraced outcomes agree on verdict, failed set,
// states explored and hook tasks; otherwise what differs.
std::string compareOutcomes(const TracedOutcome& traced,
                            const TracedOutcome& reference);

// Parallel-engine probe: explores the region of the given initialization
// with exploreReachable at 1 and at `threads` workers on fresh graphs.
struct ParallelProbe {
  int reps = 0;  // timings are medians over this many explorations each
  double msT1 = 0.0;
  double msTn = 0.0;
  double stealRatio = 0.0;
  std::uint64_t idleSpins = 0;
  double workerImbalance = 0.0;
  double installWaitMs = 0.0;
  std::uint64_t levelsOverlapped = 0;
  std::size_t statesT1 = 0;
  std::size_t statesTn = 0;
};
ParallelProbe probeParallel(const JobSpec& spec, int onesPrefix,
                            unsigned threads, int reps);

}  // namespace perfbench

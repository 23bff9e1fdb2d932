// AnalysisService: the transport-independent core of boosting_served.
//
// It owns the job table and the ServiceContextPool and turns a JobSpec
// (one AnalysisRequest, the same request the boosting_analyze CLI builds)
// into a JobResult whose verdict text is BYTE-IDENTICAL to what the CLI
// prints for the same request -- the service runs the identical
// analyzeConsensusCandidate pipeline over the identical candidate factory,
// checks and configuration (serve/candidates.h); only the wrapping
// differs.
//
// Job table: one entry per QUEUED or RUNNING job, keyed by the client id.
// A job is erased the tick its worker is reaped (or, cancelled while
// queued, the tick it is finalized); its result is reported once through
// onResult and then forgotten, so the table never outgrows the live jobs.
//
// Threading model: all public methods plus every client callback run on
// ONE driving thread (the server loop calls tick() between poll()s), and
// only that thread reads or writes the table, so it needs no lock. Each
// running job has its own worker thread (at most Config::maxConcurrent).
// A worker touches only its own entry's result, which it publishes by
// storing the entry's finished flag (release; tick() loads it with
// acquire before reading the result), plus things that are private to
// the job, an exclusively-leased ServiceContext, or internally
// synchronized (obs::Registry counters, obs::TraceWriter events, the
// service's progress queue).
//
// Cancellation drains through the exploration engines' abort seam
// (ExplorationPolicy::expansionHook throwing JobCancelled when the entry's
// cancel flag is set), so a cancelled job leaves its leased context's memo
// CONSISTENT -- the hook rethrow path is checkConsistent-guaranteed
// (analysis/explore.h) -- and the context stays safely reusable by later
// jobs. The gamma/simulation phase has no hook; cancellation there takes
// effect at the next exploration checkpoint (the phase is bounded by
// gammaMaxSteps regardless).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "analysis/explore.h"
#include "obs/registry.h"
#include "serve/cache.h"
#include "serve/candidates.h"

namespace boosting::serve {

// Thrown out of a job's expansion hook when its cancellation was
// requested. Deliberately an exception: it rides the exploration engines'
// abort seam, which rethrows the first hook exception after draining
// cleanly.
class JobCancelled : public std::runtime_error {
 public:
  JobCancelled() : std::runtime_error("job cancelled") {}
};

enum class JobState : std::uint8_t {
  Queued,
  Running,
  Done,
  Failed,
  Cancelled,
};

const char* jobStateName(JobState s);

// One submitted job: the analysis request plus the serve-only fields.
struct JobSpec {
  std::string id;  // client-chosen; unique among LIVE jobs
  AnalysisRequest request;
  int priority = 0;         // higher dispatches first
  bool wantWitness = false; // include the rendered witness execution
  bool progress = false;    // stream serve.job.progress events
};

// How the job's exploration state was sourced.
enum class CacheOutcome : std::uint8_t {
  Cold,    // first lease of a fresh context (or caching disabled)
  Warm,    // leased a context that already served a job
  Bypass,  // context was busy; ran uncached on a private System
};

const char* cacheOutcomeName(CacheOutcome c);

struct JobResult {
  std::string id;
  JobState state = JobState::Done;  // Done, Failed or Cancelled
  std::string error;  // set when state == Failed

  // Verdict payload -- byte-identical to the CLI for the same spec.
  std::string summary;          // AdversaryReport::summary()
  std::size_t states = 0;       // statesExplored
  std::size_t witnessActions = 0;
  std::string witness;          // rendered execution (when wantWitness)
  int exitCode = 0;             // exitCodeFor(report)

  CacheOutcome cache = CacheOutcome::Cold;
  double wallMs = 0.0;
};

class AnalysisService {
 public:
  struct Config {
    unsigned maxConcurrent = 1;   // running-job (worker thread) bound
    std::size_t cacheContexts = 8;  // ServiceContextPool soft cap (0 = off)
    obs::Registry* metrics = nullptr;  // serve.* counters + engine flushes
  };

  using OnResult = std::function<void(const JobResult&)>;
  using OnProgress =
      std::function<void(const std::string& id, std::uint64_t states)>;

  explicit AnalysisService(Config cfg);
  ~AnalysisService();

  // Validate (checkRequest, plus the id) and enqueue. Returns a
  // field-first error message on rejection, nullopt on acceptance.
  // onResult fires exactly once, from tick(), on the driving thread.
  std::optional<std::string> submit(const JobSpec& spec, OnResult onResult,
                                    OnProgress onProgress = nullptr);

  // By client job id: a queued job finalizes Cancelled at the next tick
  // without running; a running one at its next expansion. False when the
  // id is not in the table.
  bool cancel(const std::string& id);

  // One tick, on the driving thread: (1) deliver queued progress events;
  // (2) reap finished workers -- join, erase; (3) finalize jobs cancelled
  // while queued -- erase; (4) dispatch queued jobs by priority (highest
  // first), then submission order, while fewer than maxConcurrent run;
  // (5) fire onResult for every job finished in (2) and (3). Returns the
  // number of jobs in the table afterwards, including any a callback
  // submitted.
  std::size_t tick();
  // tick() until the table is empty.
  void drain();
  void cancelAll();

  struct JobStatus {
    std::string id;
    std::string candidate;
    JobState state = JobState::Queued;
    int priority = 0;
  };
  // The job table as it is: every queued and running job (finished jobs
  // are reported once via onResult and then forgotten, so client ids
  // become reusable).
  std::vector<JobStatus> liveJobs() const;

  ServiceContextPool::Stats cacheStats() const { return pool_.stats(); }
  std::size_t cacheSize() const { return pool_.size(); }
  std::uint64_t submitted() const { return submitted_; }

 private:
  // One queued or running job. The worker thread writes only `result`
  // and then stores `finished`; every other field belongs to the driving
  // thread (the worker reads spec and seq, which never change once it
  // runs, and loads `cancel`).
  struct Job {
    JobSpec spec;
    OnResult onResult;
    OnProgress onProgress;
    std::uint64_t seq = 0;  // submission order, the dispatch tie-break
    JobState state = JobState::Queued;
    std::atomic<bool> cancel{false};
    std::atomic<bool> finished{false};
    JobResult result;
    std::thread worker;  // last: it uses the fields above
  };

  void dispatch(Job& job);
  void runJob(Job& job);
  // Stamps the id onto the final result and counts it; the caller fires
  // the callback once the table walk is over.
  void finishJob(Job& job);
  void flushCacheCounters();

  Config cfg_;
  ServiceContextPool pool_;
  std::uint64_t submitted_ = 0;
  // The job table. std::map nodes never move, so a worker may hold a
  // pointer to its entry until tick() joins it and erases the entry.
  std::map<std::string, Job> jobs_;
  // Worker -> tick progress handoff: (client id, seq, expansions). The
  // seq tells a stale event from a job that reused the id.
  using ProgressEvent = std::tuple<std::string, std::uint64_t, std::uint64_t>;
  std::mutex progressM_;
  std::deque<ProgressEvent> progressQ_;
  ServiceContextPool::Stats flushedCache_;
};

}  // namespace boosting::serve

#include "serve/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "analysis/adversary.h"
#include "obs/trace.h"
#include "sim/trace_io.h"

namespace boosting::serve {

namespace {

// Progress cadence: one queued event / trace line per this many expansions.
// Coarse enough to be free next to an expansion, fine enough that even an
// n=3 job reports a few times.
constexpr std::uint64_t kProgressStride = 2048;

}  // namespace

const char* jobStateName(JobState s) {
  switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
  }
  return "?";
}

const char* cacheOutcomeName(CacheOutcome c) {
  switch (c) {
    case CacheOutcome::Cold: return "cold";
    case CacheOutcome::Warm: return "warm";
    case CacheOutcome::Bypass: return "bypass";
  }
  return "?";
}

AnalysisService::AnalysisService(Config cfg)
    : cfg_(cfg), pool_(cfg.cacheContexts) {
  cfg_.maxConcurrent = std::max(cfg_.maxConcurrent, 1u);
}

AnalysisService::~AnalysisService() {
  // Workers reference service members (progress queue, their table
  // entries); make sure none survive into member destruction.
  cancelAll();
  drain();
}

std::optional<std::string> AnalysisService::submit(const JobSpec& spec,
                                                   OnResult onResult,
                                                   OnProgress onProgress) {
  if (spec.id.empty()) return "id: required";
  if (jobs_.count(spec.id)) {
    return "id: '" + spec.id + "' is already a live job";
  }
  if (auto error = checkRequest(spec.request)) return error;

  Job& job = jobs_.try_emplace(spec.id).first->second;
  job.spec = spec;
  job.onResult = std::move(onResult);
  job.onProgress = std::move(onProgress);
  job.seq = ++submitted_;
  if (cfg_.metrics) {
    cfg_.metrics->add("serve.jobs.submitted");
    if (auto* tw = cfg_.metrics->trace()) {
      const AnalysisRequest& req = spec.request;
      tw->event("serve.job.submit",
                {{"id", spec.id}, {"candidate", req.candidate},
                 {"n", req.n}, {"f", req.f}, {"claim", req.claimedFailures()},
                 {"priority", spec.priority}});
    }
  }
  return std::nullopt;
}

void AnalysisService::dispatch(Job& job) {
  job.state = JobState::Running;
  job.worker = std::thread([this, &job] {
    JobResult& result = job.result;
    try {
      runJob(job);
      result.state = JobState::Done;
    } catch (const JobCancelled&) {
      result.state = JobState::Cancelled;
    } catch (const std::exception& e) {
      result.state = JobState::Failed;
      result.error = e.what();
    } catch (...) {
      result.state = JobState::Failed;
      result.error = "unknown exception";
    }
    job.finished.store(true, std::memory_order_release);
  });
}

void AnalysisService::runJob(Job& job) {
  const JobSpec& spec = job.spec;
  JobResult& result = job.result;
  const AnalysisRequest& req = spec.request;
  obs::TraceWriter* tw = cfg_.metrics ? cfg_.metrics->trace() : nullptr;
  const auto start = std::chrono::steady_clock::now();
  // Record the wall time even when the body unwinds (cancel / failure).
  struct WallGuard {
    const std::chrono::steady_clock::time_point& start;
    double* out;
    ~WallGuard() {
      *out = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - start)
                 .count();
    }
  } wallGuard{start, &result.wallMs};

  if (tw) tw->event("serve.job.start", {{"id", spec.id}});

  // Source the exploration substructure: an exclusive lease on the cached
  // context when available, a private cold build otherwise.
  const ServiceKey key{req.candidate, req.n, req.f, req.symmetry, req.por};
  std::string buildError;
  std::optional<ServiceContextPool::Lease> lease =
      pool_.acquire(key, &buildError);
  if (!lease && !buildError.empty()) throw std::runtime_error(buildError);
  std::unique_ptr<ioa::System> privateSys;
  ioa::System* sys = nullptr;
  std::shared_ptr<analysis::AnalysisMemo> memo;
  if (lease) {
    sys = &lease->system();
    memo = lease->memo();
    result.cache = lease->warm() ? CacheOutcome::Warm : CacheOutcome::Cold;
  } else {
    privateSys = buildCandidateSystem(req.candidate, req.n, req.f, &buildError);
    if (!privateSys) throw std::runtime_error(buildError);
    sys = privateSys.get();
    result.cache = cfg_.cacheContexts == 0 ? CacheOutcome::Cold
                                           : CacheOutcome::Bypass;
  }

  analysis::AdversaryConfig acfg = adversaryConfig(req);
  acfg.exploration.metrics = cfg_.metrics;
  acfg.memo = memo;
  // Cooperative seam: cancellation rides the engines' per-expansion
  // hook; progress is rate-limited and handed to the driving thread via
  // the queue (client callbacks never fire on a worker). The counter is
  // ours because the hook's argument restarts per exploration phase.
  std::uint64_t expansions = 0;
  acfg.exploration.expansionHook = [this, &job, &expansions,
                                    tw](std::size_t) {
    if (job.cancel.load(std::memory_order_relaxed)) throw JobCancelled();
    const std::uint64_t c = ++expansions;
    if (job.spec.progress && c % kProgressStride == 0) {
      {
        std::lock_guard<std::mutex> lock(progressM_);
        progressQ_.emplace_back(job.spec.id, job.seq, c);
      }
      if (tw) {
        tw->event("serve.job.progress",
                  {{"id", job.spec.id}, {"expansions", c}});
      }
    }
  };

  auto report = analysis::analyzeConsensusCandidate(*sys, acfg);

  result.summary = report.summary();
  result.states = report.statesExplored;
  result.witnessActions = report.witness.size();
  if (spec.wantWitness && !report.witness.empty()) {
    result.witness = sim::renderExecution(report.witness);
  }
  result.exitCode = exitCodeFor(report);
}

void AnalysisService::finishJob(Job& job) {
  JobResult& result = job.result;
  result.id = job.spec.id;
  if (!cfg_.metrics) return;
  switch (result.state) {
    case JobState::Done:
      cfg_.metrics->add("serve.jobs.completed");
      break;
    case JobState::Failed:
      cfg_.metrics->add("serve.jobs.failed");
      break;
    case JobState::Cancelled:
      cfg_.metrics->add("serve.jobs.cancelled");
      break;
    default:
      break;
  }
  if (auto* tw = cfg_.metrics->trace()) {
    tw->event("serve.job.finish",
              {{"id", job.spec.id}, {"state", jobStateName(result.state)},
               {"cache", cacheOutcomeName(result.cache)},
               {"wall_ms", result.wallMs},
               {"states", static_cast<std::uint64_t>(result.states)}});
  }
}

bool AnalysisService::cancel(const std::string& id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  it->second.cancel.store(true, std::memory_order_relaxed);
  return true;
}

std::size_t AnalysisService::tick() {
  if (cfg_.metrics) cfg_.metrics->add("serve.ticks");
  // (1) Progress before reaping, so a job's progress precedes its result;
  // events of a job that is gone (or whose id now names a newer job)
  // drop.
  std::deque<ProgressEvent> q;
  {
    std::lock_guard<std::mutex> lock(progressM_);
    q.swap(progressQ_);
  }
  for (const auto& [id, seq, count] : q) {
    auto it = jobs_.find(id);
    if (it != jobs_.end() && it->second.seq == seq &&
        it->second.onProgress) {
      it->second.onProgress(id, count);
    }
  }

  // (2) Reap finished workers and (3) finalize jobs cancelled while
  // queued; both leave the table. Callbacks wait for (5): one may submit.
  std::vector<std::pair<OnResult, JobResult>> finished;
  std::vector<Job*> queued;
  std::size_t running = 0;
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    Job& job = it->second;
    if (job.state == JobState::Running &&
        job.finished.load(std::memory_order_acquire)) {
      job.worker.join();
    } else if (job.state == JobState::Queued &&
               job.cancel.load(std::memory_order_relaxed)) {
      job.result.state = JobState::Cancelled;
    } else {
      if (job.state == JobState::Running) ++running;
      if (job.state == JobState::Queued) queued.push_back(&job);
      ++it;
      continue;
    }
    finishJob(job);
    finished.emplace_back(std::move(job.onResult), std::move(job.result));
    it = jobs_.erase(it);
  }

  // (4) Dispatch: highest priority first, submission order within one.
  if (running < cfg_.maxConcurrent) {
    std::sort(queued.begin(), queued.end(), [](const Job* a, const Job* b) {
      if (a->spec.priority != b->spec.priority) {
        return a->spec.priority > b->spec.priority;
      }
      return a->seq < b->seq;
    });
    for (Job* job : queued) {
      if (running == cfg_.maxConcurrent) break;
      dispatch(*job);
      ++running;
    }
  }
  flushCacheCounters();

  // (5) Results, each exactly once.
  for (auto& [onResult, result] : finished) {
    if (onResult) onResult(result);
  }
  return jobs_.size();
}

void AnalysisService::drain() {
  while (tick() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void AnalysisService::cancelAll() {
  for (auto& [id, job] : jobs_) {
    job.cancel.store(true, std::memory_order_relaxed);
  }
}

std::vector<AnalysisService::JobStatus> AnalysisService::liveJobs() const {
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) {
    out.push_back(JobStatus{id, job.spec.request.candidate, job.state,
                            job.spec.priority});
  }
  return out;
}

void AnalysisService::flushCacheCounters() {
  if (!cfg_.metrics) return;
  const ServiceContextPool::Stats s = pool_.stats();
  cfg_.metrics->add("serve.cache.context_builds",
                    s.builds - flushedCache_.builds);
  cfg_.metrics->add("serve.cache.context_reuses",
                    s.reuses - flushedCache_.reuses);
  cfg_.metrics->add("serve.cache.bypasses",
                    s.bypasses - flushedCache_.bypasses);
  cfg_.metrics->add("serve.cache.evictions",
                    s.evictions - flushedCache_.evictions);
  flushedCache_ = s;
}

}  // namespace boosting::serve

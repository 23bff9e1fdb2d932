// AnalysisService tests: submit-time validation (mirroring the CLI flag
// diagnostics), end-to-end verdict equality with warm-cache reuse,
// priority-ordered completion, the concurrency bound, cancellation before
// and during a run, failing jobs, follow-up submits from a result
// callback, and the job table forgetting every finished job.
#include "serve/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.h"
#include "serve/server.h"

namespace boosting::serve {
namespace {

JobSpec relaySpec(const std::string& id) {
  JobSpec spec;
  spec.id = id;
  spec.request.candidate = "relay";
  spec.request.n = 3;
  spec.request.f = 1;
  return spec;
}

std::string rejectionFor(AnalysisService& svc, const JobSpec& spec) {
  const auto err = svc.submit(spec, [](const JobResult&) {});
  EXPECT_TRUE(err.has_value()) << "spec '" << spec.id << "' was accepted";
  return err.value_or("");
}

TEST(ServeService, RejectsInvalidSpecsWithCliStyleDiagnostics) {
  AnalysisService svc(AnalysisService::Config{});

  JobSpec spec = relaySpec("");
  EXPECT_NE(rejectionFor(svc, spec).find("id"), std::string::npos);

  spec = relaySpec("j");
  spec.request.candidate = "banana";
  EXPECT_NE(rejectionFor(svc, spec).find("unknown candidate"),
            std::string::npos);

  // Diagnostics lead with the wire field name, mirroring the CLI's
  // flag-first shape.
  spec = relaySpec("j");
  spec.request.n = 1;
  EXPECT_NE(rejectionFor(svc, spec).find("n: value 1 out of range"),
            std::string::npos);

  spec = relaySpec("j");
  spec.request.f = 3;  // f must be < n
  EXPECT_NE(rejectionFor(svc, spec).find("f: service resilience"),
            std::string::npos);

  spec = relaySpec("j");
  spec.request.claim = 3;  // claim must be < n
  EXPECT_NE(rejectionFor(svc, spec).find("claim: claimed failures"),
            std::string::npos);

  // A negative claim is an explicit claim, not a request for the default.
  spec = relaySpec("j");
  spec.request.claim = -5;
  EXPECT_EQ(rejectionFor(svc, spec), "claim: value -5 out of range [1, 19]");

  // Duplicate LIVE id: the first submission is still queued (no tick yet).
  spec = relaySpec("dup");
  EXPECT_FALSE(svc.submit(spec, [](const JobResult&) {}).has_value());
  EXPECT_NE(rejectionFor(svc, spec).find("dup"), std::string::npos);
  svc.cancelAll();
  svc.drain();
}

TEST(ServeService, WireSubmitsGetTheSharedDomainChecks) {
  // A submit line goes through the wire parser and then submit(); whichever
  // stage rejects it, the diagnostic names the field.
  AnalysisService svc(AnalysisService::Config{});
  const std::pair<const char*, const char*> cases[] = {
      {R"("claim":-5)", "claim: value -5 out of range [1, 19]"},
      {R"("claim":0)", "claim: value 0 out of range [1, 19]"},
      {R"("claim":3)", "claim: claimed failures 3 must be smaller than n 3 "
                       "(the theorems assume f+1 <= n-1)"},
      {R"("n":21)", "n: value 21 out of range [2, 20]"},
      {R"("symmetry":"on")", "symmetry: expected auto|off, got 'on'"},
      {R"("por":"on")", "por: expected auto|off, got 'on'"},
  };
  for (const auto& [extra, want] : cases) {
    const std::string line =
        std::string(R"({"op":"submit","id":"j","n":3,"f":1,)") + extra + "}";
    WireObject req;
    std::string err;
    ASSERT_TRUE(parseWireObject(line, &req, &err)) << line << ": " << err;
    JobSpec spec;
    if (parseSubmitRequest(req, &spec, &err)) err = rejectionFor(svc, spec);
    EXPECT_EQ(err, want) << line;
  }
  EXPECT_TRUE(svc.liveJobs().empty());
}

TEST(ServeService, WarmJobMatchesColdJobByteForByte) {
  obs::Registry registry;
  AnalysisService::Config cfg;
  cfg.metrics = &registry;
  AnalysisService svc(cfg);
  std::vector<JobResult> results;
  for (const char* id : {"cold", "warm"}) {
    auto spec = relaySpec(id);
    spec.wantWitness = true;
    ASSERT_FALSE(
        svc.submit(spec, [&](const JobResult& r) { results.push_back(r); })
            .has_value());
  }
  svc.drain();
  EXPECT_TRUE(svc.liveJobs().empty());
  ASSERT_EQ(results.size(), 2u);
  const auto& cold = results[0];
  const auto& warm = results[1];
  EXPECT_EQ(cold.id, "cold");
  EXPECT_EQ(warm.id, "warm");
  EXPECT_EQ(cold.state, JobState::Done);
  EXPECT_EQ(warm.state, JobState::Done);
  EXPECT_EQ(cold.cache, CacheOutcome::Cold);
  EXPECT_EQ(warm.cache, CacheOutcome::Warm);
  // The warm verdict is bit-identical to the cold one.
  EXPECT_EQ(warm.summary, cold.summary);
  EXPECT_EQ(warm.states, cold.states);
  EXPECT_EQ(warm.witnessActions, cold.witnessActions);
  EXPECT_EQ(warm.witness, cold.witness);
  EXPECT_EQ(warm.exitCode, cold.exitCode);
  EXPECT_FALSE(cold.summary.empty());
  EXPECT_FALSE(cold.witness.empty());
  // And the pool counted one build + one reuse.
  EXPECT_EQ(svc.cacheStats().builds, 1u);
  EXPECT_EQ(svc.cacheStats().reuses, 1u);
  // serve.* counters flushed into the registry.
  const auto snap = registry.counters();
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [k, v] : snap) {
      if (k == name) return v;
    }
    return 0;
  };
  EXPECT_EQ(counter("serve.jobs.submitted"), 2u);
  EXPECT_EQ(counter("serve.jobs.completed"), 2u);
  EXPECT_EQ(counter("serve.cache.context_builds"), 1u);
  EXPECT_EQ(counter("serve.cache.context_reuses"), 1u);
}

TEST(ServeService, DisabledCacheRunsEveryJobCold) {
  AnalysisService::Config cfg;
  cfg.cacheContexts = 0;
  AnalysisService svc(cfg);
  std::vector<JobResult> results;
  for (const char* id : {"a", "b"}) {
    ASSERT_FALSE(
        svc.submit(relaySpec(id),
                   [&](const JobResult& r) { results.push_back(r); })
            .has_value());
  }
  svc.drain();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].cache, CacheOutcome::Cold);
  EXPECT_EQ(results[1].cache, CacheOutcome::Cold);
  EXPECT_EQ(results[0].summary, results[1].summary);
  EXPECT_EQ(svc.cacheStats().builds, 0u);
}

TEST(ServeService, HigherPriorityJobsFinishFirst) {
  AnalysisService svc(AnalysisService::Config{});  // one worker: serialized
  std::vector<std::string> finished;
  auto submit = [&](const std::string& id, int priority) {
    auto spec = relaySpec(id);
    spec.priority = priority;
    ASSERT_FALSE(
        svc.submit(spec,
                   [&](const JobResult& r) { finished.push_back(r.id); })
            .has_value());
  };
  submit("low", -5);
  submit("high", 5);
  submit("high2", 5);
  submit("mid", 0);
  svc.drain();
  EXPECT_EQ(finished,
            (std::vector<std::string>{"high", "high2", "mid", "low"}));
  EXPECT_TRUE(svc.liveJobs().empty());
}

std::size_t countIn(const std::vector<AnalysisService::JobStatus>& jobs,
                    JobState state) {
  return static_cast<std::size_t>(
      std::count_if(jobs.begin(), jobs.end(),
                    [state](const auto& j) { return j.state == state; }));
}

TEST(ServeService, BoundsRunningJobs) {
  AnalysisService::Config cfg;
  cfg.maxConcurrent = 2;
  AnalysisService svc(cfg);
  int done = 0;
  for (const char* id : {"a", "b", "c", "d"}) {
    ASSERT_FALSE(svc.submit(relaySpec(id),
                            [&](const JobResult& r) {
                              EXPECT_EQ(r.state, JobState::Done);
                              ++done;
                            })
                     .has_value());
  }
  // The first tick dispatches exactly as many jobs as the bound allows.
  svc.tick();
  auto live = svc.liveJobs();
  EXPECT_EQ(countIn(live, JobState::Running), 2u);
  EXPECT_EQ(countIn(live, JobState::Queued), 2u);
  while (svc.tick() != 0) {
    EXPECT_LE(countIn(svc.liveJobs(), JobState::Running), 2u);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_EQ(done, 4);
  EXPECT_TRUE(svc.liveJobs().empty());
}

TEST(ServeService, CancelledRunLeavesTheCacheWarmAndExact) {
  // Reference: the same request run cold in a service of its own.
  JobResult cold;
  {
    AnalysisService ref(AnalysisService::Config{});
    auto spec = relaySpec("cold");
    spec.request.n = 4;
    spec.wantWitness = true;
    ASSERT_FALSE(
        ref.submit(spec, [&](const JobResult& r) { cold = r; }).has_value());
    ref.drain();
  }
  ASSERT_EQ(cold.state, JobState::Done);
  ASSERT_EQ(cold.cache, CacheOutcome::Cold);

  AnalysisService svc(AnalysisService::Config{});
  std::vector<JobResult> results;
  auto spec = relaySpec("doomed");
  spec.request.n = 4;
  spec.wantWitness = true;
  ASSERT_FALSE(
      svc.submit(spec, [&](const JobResult& r) { results.push_back(r); })
          .has_value());
  svc.tick();  // dispatch: the job is running now
  ASSERT_EQ(countIn(svc.liveJobs(), JobState::Running), 1u);
  EXPECT_TRUE(svc.cancel("doomed"));
  svc.drain();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].state, JobState::Cancelled);

  // The cancelled run leased the context and left its memo consistent: the
  // next job for the same key starts warm and reports the cold verdict.
  spec.id = "again";
  ASSERT_FALSE(
      svc.submit(spec, [&](const JobResult& r) { results.push_back(r); })
          .has_value());
  svc.drain();
  ASSERT_EQ(results.size(), 2u);
  const JobResult& warm = results[1];
  EXPECT_EQ(warm.state, JobState::Done);
  EXPECT_EQ(warm.cache, CacheOutcome::Warm);
  EXPECT_EQ(warm.summary, cold.summary);
  EXPECT_EQ(warm.states, cold.states);
  EXPECT_EQ(warm.witnessActions, cold.witnessActions);
  EXPECT_EQ(warm.witness, cold.witness);
  EXPECT_EQ(warm.exitCode, cold.exitCode);
  EXPECT_TRUE(svc.liveJobs().empty());
}

TEST(ServeService, ResultCallbackMaySubmitAFollowUp) {
  AnalysisService svc(AnalysisService::Config{});
  std::vector<JobResult> results;
  AnalysisService::OnResult record = [&](const JobResult& r) {
    results.push_back(r);
  };
  ASSERT_FALSE(svc.submit(relaySpec("first"),
                          [&](const JobResult& r) {
                            results.push_back(r);
                            // The finished job is out of the table, so its
                            // id is free for the follow-up.
                            EXPECT_FALSE(
                                svc.submit(relaySpec("first"), record)
                                    .has_value());
                          })
                   .has_value());
  svc.drain();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].state, JobState::Done);
  EXPECT_EQ(results[1].state, JobState::Done);
  EXPECT_EQ(results[1].id, "first");
  EXPECT_EQ(results[1].summary, results[0].summary);
  EXPECT_EQ(results[1].cache, CacheOutcome::Warm);
  EXPECT_TRUE(svc.liveJobs().empty());
}

TEST(ServeService, FailingJobReportsItsError) {
  // bridge n=2 passes checkRequest but its builder cannot place the
  // bridge endpoint, so the job body throws.
  AnalysisService svc(AnalysisService::Config{});
  std::vector<JobResult> results;
  auto spec = relaySpec("broken");
  spec.request.candidate = "bridge";
  spec.request.n = 2;
  spec.request.f = 0;
  ASSERT_FALSE(
      svc.submit(spec, [&](const JobResult& r) { results.push_back(r); })
          .has_value());
  svc.drain();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].state, JobState::Failed);
  EXPECT_EQ(results[0].error,
            "bridge endpoint must leave at least one reader after it");
  EXPECT_TRUE(svc.liveJobs().empty());
}

TEST(ServeService, CancelBeforeFirstTickYieldsCancelledResult) {
  AnalysisService svc(AnalysisService::Config{});
  std::vector<JobResult> results;
  ASSERT_FALSE(
      svc.submit(relaySpec("doomed"),
                 [&](const JobResult& r) { results.push_back(r); })
          .has_value());
  EXPECT_TRUE(svc.cancel("doomed"));
  EXPECT_FALSE(svc.cancel("nosuch"));
  svc.drain();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].state, JobState::Cancelled);
  // The id is live no more: it is reusable and un-cancellable.
  EXPECT_FALSE(svc.cancel("doomed"));
  EXPECT_TRUE(svc.liveJobs().empty());
}

TEST(ServeService, LiveJobsReportsQueuedState) {
  AnalysisService svc(AnalysisService::Config{});
  ASSERT_FALSE(
      svc.submit(relaySpec("waiting"), [](const JobResult&) {}).has_value());
  const auto live = svc.liveJobs();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].id, "waiting");
  EXPECT_EQ(live[0].candidate, "relay");
  EXPECT_EQ(live[0].state, JobState::Queued);
  svc.cancelAll();
  svc.drain();
}

}  // namespace
}  // namespace boosting::serve

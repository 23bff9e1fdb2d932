// TickScheduler tests: dispatch order (priority desc, FIFO within), the
// concurrency bound, queued-job cancellation, cancellation of a RUNNING
// exploration draining through the engines' abort path (graph stays
// checkConsistent), and pause/resume being observationally inert.
#include "serve/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "analysis/bivalence.h"
#include "analysis/explore.h"
#include "analysis/state_graph.h"
#include "serve/candidates.h"

namespace boosting::serve {
namespace {

using Clock = std::chrono::steady_clock;

void drainFast(TickScheduler& s) {
  while (s.tick() != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

TEST(ServeScheduler, DispatchesByPriorityThenSubmissionOrder) {
  TickScheduler sched(TickScheduler::Config{1});
  std::mutex m;
  std::vector<std::string> order;
  auto body = [&](const std::string& tag) {
    return [&, tag](JobControl&) {
      std::lock_guard<std::mutex> lock(m);
      order.push_back(tag);
    };
  };
  // Submitted low, high, high, mid -- must run high1, high2, mid, low.
  sched.submit("low", -1, body("low"));
  sched.submit("high1", 5, body("high1"));
  sched.submit("high2", 5, body("high2"));
  sched.submit("mid", 0, body("mid"));
  drainFast(sched);
  EXPECT_EQ(order,
            (std::vector<std::string>{"high1", "high2", "mid", "low"}));
}

TEST(ServeScheduler, BoundsConcurrency) {
  TickScheduler sched(TickScheduler::Config{2});
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  std::atomic<bool> release{false};
  for (int i = 0; i < 6; ++i) {
    sched.submit("j", 0, [&](JobControl&) {
      const int now = ++inside;
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      --inside;
    });
  }
  // A few ticks to dispatch as much as the bound allows.
  for (int i = 0; i < 10; ++i) {
    sched.tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(sched.runningCount(), 2u);
  EXPECT_EQ(sched.queuedCount(), 4u);
  release = true;
  drainFast(sched);
  EXPECT_LE(peak.load(), 2);
  EXPECT_EQ(sched.runningCount(), 0u);
}

TEST(ServeScheduler, CancelsQueuedJobWithoutRunningIt) {
  TickScheduler sched(TickScheduler::Config{1});
  std::atomic<bool> ran{false};
  JobState finalState = JobState::Done;
  const auto id = sched.submit(
      "doomed", 0, [&](JobControl&) { ran = true; },
      [&](std::uint64_t, JobState s, const std::string&) { finalState = s; });
  EXPECT_TRUE(sched.cancel(id));
  drainFast(sched);
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(finalState, JobState::Cancelled);
  // A finished job cannot be cancelled/paused/resumed again.
  EXPECT_FALSE(sched.cancel(id));
  EXPECT_FALSE(sched.pause(id));
  EXPECT_FALSE(sched.resume(id));
}

TEST(ServeScheduler, CancelDrainsRunningExplorationThroughAbortPath) {
  // The body explores relay n=3 G(C) with the per-expansion checkpoint
  // wired into the engines' hook; cancellation must surface as a
  // Cancelled outcome AND leave the StateGraph checked-consistent (the
  // property that makes a cached context reusable after a cancel).
  auto sys = buildCandidateSystem("relay", 3, 1, nullptr);
  ASSERT_NE(sys, nullptr);
  analysis::StateGraph g(*sys);
  std::atomic<bool> go{false};
  TickScheduler sched(TickScheduler::Config{1});
  JobState finalState = JobState::Done;
  const auto id = sched.submit(
      "explore", 0,
      [&](JobControl& ctl) {
        while (!go.load()) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        analysis::ExplorationPolicy policy;
        policy.expansionHook = [&ctl](std::size_t) { ctl.checkpoint(); };
        const auto root =
            g.intern(analysis::canonicalInitialization(*sys, 1));
        analysis::exploreReachable(g, root, policy);
      },
      [&](std::uint64_t, JobState s, const std::string&) { finalState = s; });
  // Dispatch, cancel while the worker is gated, then release: the very
  // first expansion checkpoint observes the cancel.
  sched.tick();
  EXPECT_EQ(sched.runningCount(), 1u);
  EXPECT_TRUE(sched.cancel(id));
  go = true;
  drainFast(sched);
  EXPECT_EQ(finalState, JobState::Cancelled);
  std::string why;
  EXPECT_TRUE(g.checkConsistent(&why)) << why;
}

TEST(ServeScheduler, PauseResumeIsObservationallyInert) {
  // Reference: explore without any scheduler interference.
  auto sys = buildCandidateSystem("relay", 3, 1, nullptr);
  ASSERT_NE(sys, nullptr);
  std::size_t refStates = 0;
  {
    analysis::StateGraph ref(*sys);
    const auto root =
        ref.intern(analysis::canonicalInitialization(*sys, 1));
    analysis::exploreReachable(ref, root);
    refStates = ref.size();
  }

  analysis::StateGraph g(*sys);
  TickScheduler sched(TickScheduler::Config{1});
  std::atomic<std::uint64_t> expansions{0};
  std::atomic<bool> go{false};
  JobState finalState = JobState::Failed;
  const auto id = sched.submit(
      "explore", 0,
      [&](JobControl& ctl) {
        while (!go.load()) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        analysis::ExplorationPolicy policy;
        policy.expansionHook = [&](std::size_t) {
          ctl.checkpoint();
          ++expansions;
        };
        const auto root =
            g.intern(analysis::canonicalInitialization(*sys, 1));
        analysis::exploreReachable(g, root, policy);
      },
      [&](std::uint64_t, JobState s, const std::string&) { finalState = s; });
  sched.tick();
  // The worker is gated, so this first pause definitely lands before the
  // exploration starts: the first checkpoint blocks until the resume.
  EXPECT_TRUE(sched.pause(id));
  go = true;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(sched.resume(id));
  // Pause/resume storm while (or after) the exploration runs; once the
  // job finished these are no-ops returning false, which is fine -- the
  // assertion is that the result is unchanged either way.
  for (int i = 0; i < 5; ++i) {
    sched.pause(id);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    sched.resume(id);
    sched.tick();
  }
  drainFast(sched);
  EXPECT_EQ(finalState, JobState::Done);
  EXPECT_EQ(g.size(), refStates);
  EXPECT_GT(expansions.load(), 0u);
  std::string why;
  EXPECT_TRUE(g.checkConsistent(&why)) << why;
}

TEST(ServeScheduler, PausedJobObservesCancellation) {
  JobControl ctl;
  ctl.requestPause();
  std::thread t([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ctl.requestCancel();
  });
  // checkpoint blocks on the pause, then the cancel arrives and throws.
  EXPECT_THROW(ctl.checkpoint(), JobCancelled);
  t.join();
}

TEST(ServeScheduler, CancelWinsOverPause) {
  JobControl ctl;
  ctl.requestCancel();
  ctl.requestPause();  // must not demote the cancel
  EXPECT_TRUE(ctl.cancelRequested());
  EXPECT_THROW(ctl.checkpoint(), JobCancelled);
  ctl.requestResume();  // must not clear the cancel either
  EXPECT_TRUE(ctl.cancelRequested());
}

TEST(ServeScheduler, FailedBodySurfacesItsError) {
  TickScheduler sched(TickScheduler::Config{1});
  JobState finalState = JobState::Done;
  std::string error;
  sched.submit(
      "boom", 0,
      [](JobControl&) { throw std::runtime_error("engine exploded"); },
      [&](std::uint64_t, JobState s, const std::string& e) {
        finalState = s;
        error = e;
      });
  drainFast(sched);
  EXPECT_EQ(finalState, JobState::Failed);
  EXPECT_EQ(error, "engine exploded");
}

}  // namespace
}  // namespace boosting::serve

// The served-mix workload: a closed-loop client of one boosting_served
// process (see served.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench.h"

namespace perfbench {

// Server worker bound and the client's jobs in flight. One job in flight
// keeps about one vCPU busy: with four, host steal on a shared machine
// spread the timings past any usable bound (see README.md), so the
// busy-context bypass path of the cache is not exercised.
constexpr unsigned kMaxConcurrent = 4;
constexpr std::size_t kOutstanding = 1;
// The server's poll timeout, which is also its scheduler tick. A result
// goes out at the first tick after its job ends, so with one job in flight
// every latency is rounded up to whole ticks: at the default 10 ms, the
// median jumped by a full tick between runs. 1 ms keeps the rounding below
// the run-to-run noise.
constexpr int kTickMs = 1;

struct ServedOptions {
  std::string servedPath;  // the boosting_served binary
  std::uint64_t seed = 1;  // drives the job mix
  double seconds = 10.0;   // submit window; outstanding jobs then drain
  SpanLog* log = nullptr;  // non-null: record a span tree per job
  std::uint64_t firstJobId = 0;
  // One job of each spec before the clock starts, so that every cache
  // context is built; they are checked but flagged, and their CPU time is
  // not counted.
  bool warmup = false;
};

struct ServedResult {
  std::size_t mixIndex = 0;
  double latencyS = 0.0;  // submit written -> result line read
  double wallMs = 0.0;    // the server's own job wall time
  std::string status;
  std::string summary;
  std::string witness;
  std::string cache;  // warm | cold | bypass
  std::size_t states = 0;
  int exitCode = 0;
  bool warmup = false;
  bool passed = false;  // passed the correctness gate
};

struct ServedRun {
  std::vector<ServedResult> results;
  std::vector<std::string> requestLines;  // exactly what the server read
  std::size_t attempted = 0;
  std::size_t failed = 0;  // rejected, errored, or failed the gate
  double cpuS = 0.0;       // server user + system time after the warm-up
  double peakRssMb = 0.0;  // server VmHWM
  std::string error;       // the run itself broke down
  std::string firstFailure;
};

// The distinct specs the mix draws from.
std::vector<JobSpec> servedMixSpecs();

ServedRun runServedMix(const ServedOptions& opt);

// Spawns an idle server, waits for its first pong and shuts it down.
// Returns the seconds from spawn to pong, or a negative value with *error
// set.
double timeServerSetup(const std::string& servedPath, std::string* error);

}  // namespace perfbench

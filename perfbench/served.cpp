// served-mix: one boosting_served process over stdio, driven by a
// single-threaded closed-loop client that keeps kOutstanding jobs in
// flight. The job sequence comes from a seeded generator; the server only
// ever sees the generated JSONL lines.
#include "served.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>

#include "serve/wire.h"
#include "sim/trace_io.h"

extern char** environ;

namespace perfbench {

namespace {

using boosting::serve::WireObject;
using boosting::serve::WireValue;

// The mix: small specs whose per-job engine work is short, so the serve
// layers (wire, scheduler, cache leases) carry a visible share of the
// load. flooding is id-sensitive under symmetry and ends in the Lemma-4
// construction; bridge runs POR without symmetry. The weights put the
// median job inside the cluster of fast specs (relay n=3, bridge n=4)
// rather than in the gap between them and the slow ones (flooding, tob),
// where a small shift in the mix would move verdict_s.p50 a long way; the
// slow specs shape verdict_s.p90.
struct MixEntry {
  const char* candidate;
  int n;
  unsigned weight;
};
constexpr MixEntry kMix[] = {
    {"relay", 3, 3}, {"relay", 4, 2}, {"flooding", 3, 1}, {"bridge", 4, 3}, {"tob", 3, 1},
};
constexpr std::size_t kMixSize = sizeof(kMix) / sizeof(kMix[0]);
constexpr int kMixF = 1;

JobSpec specOf(std::size_t mixIndex) {
  JobSpec s;
  s.candidate = kMix[mixIndex].candidate;
  s.n = kMix[mixIndex].n;
  s.f = kMixF;
  return s;
}

// Deals the mix from a deck holding each spec `weight` times, shuffled
// anew (Fisher-Yates on splitmix64) whenever it runs out: the seed sets
// the order, while every run of a given length gets the same proportions,
// so verdict_s.p50 does not move with the luck of the draw. The job
// sequence must not depend on the library's RNG.
class MixGenerator {
 public:
  explicit MixGenerator(std::uint64_t seed) : state_(seed) {
    for (std::size_t i = 0; i < kMixSize; ++i) deck_.insert(deck_.end(), kMix[i].weight, i);
    dealt_ = deck_.size();
  }
  std::size_t next() {
    if (dealt_ == deck_.size()) {
      for (std::size_t i = deck_.size() - 1; i > 0; --i) {
        std::swap(deck_[i], deck_[splitmix() % (i + 1)]);
      }
      dealt_ = 0;
    }
    return deck_[dealt_++];
  }

 private:
  std::uint64_t splitmix() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint64_t state_;
  std::vector<std::size_t> deck_;
  std::size_t dealt_ = 0;
};

std::string submitLine(const std::string& id, std::size_t mixIndex) {
  WireObject o;
  o["op"] = WireValue::ofStr("submit");
  o["id"] = WireValue::ofStr(id);
  o["candidate"] = WireValue::ofStr(kMix[mixIndex].candidate);
  o["n"] = WireValue::ofInt(kMix[mixIndex].n);
  o["f"] = WireValue::ofInt(kMixF);
  o["witness"] = WireValue::ofBool(true);
  return boosting::serve::writeWireObject(o);
}

std::string opLine(const char* op) {
  WireObject o;
  o["op"] = WireValue::ofStr(op);
  if (std::strcmp(op, "shutdown") == 0) o["mode"] = WireValue::ofStr("drain");
  return boosting::serve::writeWireObject(o);
}

// A boosting_served child on a pair of pipes. The destructor never leaves
// the child running: it closes stdin (implicit drain-shutdown), and kills
// and reaps the child if it does not exit promptly.
class ServerProcess {
 public:
  ServerProcess(const std::string& path, unsigned maxConcurrent) {
    int in[2], out[2];
    if (pipe2(in, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    if (pipe2(out, O_CLOEXEC) != 0) {
      ::close(in[0]);
      ::close(in[1]);
      throw std::runtime_error("pipe failed");
    }
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, in[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&fa, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, "/dev/null", O_WRONLY, 0);
    const std::string conc = std::to_string(maxConcurrent);
    const std::string tick = std::to_string(kTickMs);
    std::vector<char*> argv = {const_cast<char*>(path.c_str()),
                               const_cast<char*>("--max-concurrent"),
                               const_cast<char*>(conc.c_str()),
                               const_cast<char*>("--tick-ms"),
                               const_cast<char*>(tick.c_str()), nullptr};
    const int rc = posix_spawn(&pid_, path.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(in[0]);
    ::close(out[1]);
    toServer_ = in[1];
    fromServer_ = out[0];
    if (rc != 0) {
      pid_ = -1;
      closeFds();
      throw std::runtime_error("cannot start " + path + ": " + std::strerror(rc));
    }
  }
  ~ServerProcess() {
    closeFds();
    if (pid_ > 0) {
      for (int i = 0; i < 200 && waitpid(pid_, nullptr, WNOHANG) == 0; ++i) {
        usleep(10000);
      }
      if (waitpid(pid_, nullptr, WNOHANG) == 0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
      }
    }
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int pid() const { return pid_; }

  void send(const std::string& line) {
    const std::string data = line + "\n";
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t w = ::write(toServer_, data.data() + off, data.size() - off);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) throw std::runtime_error("server closed its input");
      off += static_cast<std::size_t>(w);
    }
  }

  // Next reply line; false on EOF or when nothing arrives within timeoutMs.
  bool readLine(std::string* line, int timeoutMs) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line->assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      pollfd p{fromServer_, POLLIN, 0};
      const int pr = poll(&p, 1, timeoutMs);
      if (pr < 0 && errno == EINTR) continue;
      if (pr <= 0) return false;
      char chunk[65536];
      const ssize_t r = ::read(fromServer_, chunk, sizeof chunk);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(r));
    }
  }

  // Drain-shutdown and reap; returns the child's CPU seconds, or a
  // negative value when it did not exit cleanly.
  double finish() {
    send(opLine("shutdown"));
    closeFds();
    rusage ru{};
    int status = 0;
    const pid_t r = wait4(pid_, &status, 0, &ru);
    pid_ = -1;
    if (r < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1.0;
    auto sec = [](const timeval& t) {
      return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
  }

 private:
  void closeFds() {
    if (toServer_ >= 0) ::close(toServer_);
    if (fromServer_ >= 0) ::close(fromServer_);
    toServer_ = fromServer_ = -1;
  }

  pid_t pid_ = -1;
  int toServer_ = -1;
  int fromServer_ = -1;
  std::string buf_;
};

constexpr int kReplyTimeoutMs = 60000;

std::string awaitPong(ServerProcess& server) {
  server.send(opLine("ping"));
  std::string line;
  while (server.readLine(&line, kReplyTimeoutMs)) {
    WireObject o;
    std::string err;
    if (boosting::serve::parseWireObject(line, &o, &err) &&
        boosting::serve::getStr(o, "ev") == "pong") {
      return "";
    }
  }
  return "server never answered ping";
}

// "... [failed: {0,1}]" -> {0, 1}; "[failure-free]" -> {}. A malformed
// list yields what parsed before it, which the gate then rejects.
std::set<int> failedSetOf(const std::string& summary) {
  std::set<int> out;
  const std::size_t at = summary.rfind("[failed: {");
  if (at == std::string::npos) return out;
  const char* p = summary.c_str() + at + 10;
  while (*p >= '0' && *p <= '9') {
    char* end = nullptr;
    out.insert(static_cast<int>(std::strtol(p, &end, 10)));
    p = *end == ',' ? end + 1 : end;
  }
  return out;
}

std::string checkResult(const ServedResult& r) {
  if (r.status != "done") return "job ended with status " + r.status;
  if (r.exitCode != 0) return "job reported exit code " + std::to_string(r.exitCode);
  Construction c = Construction::Other;
  if (r.summary.find("gamma construction") != std::string::npos) {
    c = Construction::Gamma;
  } else if (r.summary.find("Lemma 4 construction") != std::string::npos) {
    c = Construction::Lemma4;
  }
  const auto witness = boosting::sim::parseExecution(r.witness);
  if (!witness) return "witness does not parse";
  return checkVerdict(specOf(r.mixIndex),
                      r.summary.rfind("TERMINATION VIOLATION", 0) == 0, c,
                      failedSetOf(r.summary), *witness);
}

// Spawns a server and waits for its first pong; null (with run.error set)
// if it never answers.
std::unique_ptr<ServerProcess> spawnServer(const std::string& path, ServedRun& run) {
  auto server = std::make_unique<ServerProcess>(path, kMaxConcurrent);
  const std::string err = awaitPong(*server);
  if (!err.empty()) {
    run.error = err;
    return nullptr;
  }
  return server;
}

}  // namespace

double timeServerSetup(const std::string& servedPath, std::string* error) {
  ServedRun run;
  const auto t0 = Clock::now();
  auto server = spawnServer(servedPath, run);
  const double s = secondsBetween(t0, Clock::now());
  if (server && server->finish() < 0) run.error = "server did not shut down cleanly";
  if (!run.error.empty()) {
    *error = run.error;
    return -1.0;
  }
  return s;
}

std::vector<JobSpec> servedMixSpecs() {
  std::vector<JobSpec> out;
  for (std::size_t i = 0; i < kMixSize; ++i) out.push_back(specOf(i));
  return out;
}

ServedRun runServedMix(const ServedOptions& opt) {
  ServedRun run;
  std::unique_ptr<ServerProcess> server = spawnServer(opt.servedPath, run);
  if (!server) return run;

  struct Pending {
    Clock::time_point sent;
    std::int64_t sentNs = 0;
    std::size_t mixIndex = 0;
    bool warmup = false;
  };
  std::map<std::string, Pending> outstanding;
  MixGenerator gen(opt.seed);
  std::uint64_t nextId = 0;
  std::size_t warmupLeft = opt.warmup ? kMixSize : 0;
  bool timing = false;
  // No job is submitted after the deadline; until the warm-up is over it
  // lies in the past.
  auto deadline = Clock::now();
  double cpuBefore = 0.0;
  auto startTiming = [&] {
    timing = true;
    if (opt.warmup) cpuBefore = std::max(0.0, cpuSecondsOf(server->pid()));
    deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(opt.seconds));
  };
  auto submitMore = [&] {
    while (outstanding.size() < kOutstanding &&
           (warmupLeft > 0 || Clock::now() < deadline)) {
      std::string id = "j";
      id += std::to_string(nextId++);
      const bool warmup = warmupLeft > 0;
      const std::size_t mix = warmup ? kMixSize - warmupLeft-- : gen.next();
      const std::string line = submitLine(id, mix);
      run.requestLines.push_back(line);
      outstanding[id] =
          Pending{Clock::now(), opt.log ? opt.log->now() : 0, mix, warmup};
      server->send(line);
      ++run.attempted;
    }
  };

  if (warmupLeft == 0) startTiming();
  submitMore();
  std::string line;
  while (!outstanding.empty()) {
    if (!server->readLine(&line, kReplyTimeoutMs)) {
      run.error = "server stopped answering with " +
                  std::to_string(outstanding.size()) + " jobs outstanding";
      return run;
    }
    const auto received = Clock::now();
    const std::int64_t receivedNs = opt.log ? opt.log->now() : 0;
    WireObject o;
    std::string err;
    if (!boosting::serve::parseWireObject(line, &o, &err)) {
      run.error = "unparsable reply: " + err;
      return run;
    }
    const std::string ev = boosting::serve::getStr(o, "ev");
    if (ev != "result" && ev != "error") continue;  // acks
    const auto it = outstanding.find(boosting::serve::getStr(o, "id"));
    if (it == outstanding.end()) continue;
    if (ev == "error") {
      ++run.failed;
    } else {
      ServedResult r;
      r.mixIndex = it->second.mixIndex;
      r.warmup = it->second.warmup;
      r.latencyS = secondsBetween(it->second.sent, received);
      r.status = boosting::serve::getStr(o, "status");
      r.summary = boosting::serve::getStr(o, "summary");
      r.witness = boosting::serve::getStr(o, "witness");
      r.cache = boosting::serve::getStr(o, "cache");
      r.states = static_cast<std::size_t>(boosting::serve::getInt(o, "states"));
      r.exitCode = static_cast<int>(boosting::serve::getInt(o, "exit_code"));
      const auto wall = o.find("wall_ms");
      r.wallMs = wall == o.end() ? 0.0
                 : wall->second.kind == WireValue::Kind::Double
                     ? wall->second.d
                     : static_cast<double>(wall->second.i);
      if (opt.log) {
        const std::uint64_t job = opt.firstJobId + run.results.size();
        const int root = opt.log->add("served.job", -1, job,
                                      it->second.sentNs, receivedNs);
        const auto wallNs = static_cast<std::int64_t>(r.wallMs * 1e6);
        opt.log->add("server.job_wall", root, job, receivedNs - wallNs,
                     receivedNs);
      }
      run.results.push_back(std::move(r));
    }
    outstanding.erase(it);
    if (!timing && warmupLeft == 0 && outstanding.empty()) startTiming();
    submitMore();
  }
  run.peakRssMb = peakRssMb(server->pid());
  run.cpuS = server->finish();
  if (run.cpuS < 0) run.error = "server did not shut down cleanly";
  else run.cpuS -= cpuBefore;
  server.reset();

  // The gate runs after the clock stops: replaying witnesses in the loop
  // would throttle the closed loop.
  for (ServedResult& r : run.results) {
    const std::string why = checkResult(r);
    r.passed = why.empty();
    if (!why.empty()) {
      ++run.failed;
      if (run.firstFailure.empty()) {
        run.firstFailure = specOf(r.mixIndex).label() + ": " + why;
      }
    }
  }
  return run;
}

}  // namespace perfbench

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "perfbench.h"
#include "processes/process.h"
#include "serve/candidates.h"
#include "serve/wire.h"

namespace perfbench {

using boosting::ioa::ActionKind;

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double peakRssMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double selfCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double cpuSecondsOf(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  if (!std::getline(in, stat)) return -1.0;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the line, the 12th and 13th after ")".
  const auto close = stat.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream rest(stat.substr(close + 1));
  std::string field;
  double ticks = 0.0;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i >= 12) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// Keeps the gauge's lookups from being optimised away; the count is fixed.
volatile std::uint64_t gaugeSink = 0;

double gaugeSeconds() {
  constexpr int kPasses = 2;
  constexpr std::uint32_t kInserts = 300000;
  constexpr std::uint64_t kKeys = 200000;
  const auto t0 = Clock::now();
  std::uint64_t found = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    std::uint64_t x = 0x2545f4914f6cdd1dULL;
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> table;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (std::uint32_t i = 0; i < kInserts; ++i) table[next() % kKeys].push_back(i);
    for (std::uint32_t i = 0; i < kInserts; ++i) found += table.count(next() % (2 * kKeys));
  }
  const double s = secondsBetween(t0, Clock::now());
  gaugeSink = found;
  return s;
}

std::string JobSpec::label() const {
  return candidate + " n=" + std::to_string(n) + " f=" + std::to_string(f);
}

boosting::analysis::AdversaryConfig cliConfig(const JobSpec& spec) {
  boosting::analysis::AdversaryConfig cfg;
  cfg.claimedFailures = spec.claim();
  cfg.exemptFailureAware = true;
  cfg.exploration.threads = spec.threads;
  cfg.symmetry = spec.symmetry;
  cfg.por = spec.por;
  return cfg;
}

std::unique_ptr<boosting::ioa::System> buildSystem(const JobSpec& spec) {
  std::string error;
  auto sys = boosting::serve::buildCandidateSystem(spec.candidate, spec.n,
                                                   spec.f, &error);
  if (!sys) throw std::runtime_error(error);
  return sys;
}

std::string checkVerdict(const JobSpec& spec, bool terminationViolation,
                         Construction construction,
                         const std::set<int>& failed,
                         const boosting::ioa::Execution& witness) {
  if (!terminationViolation) return "verdict is not a termination violation";
  std::size_t wantFailed = 0;
  switch (construction) {
    case Construction::Gamma: wantFailed = spec.claim(); break;
    case Construction::Lemma4: wantFailed = 1; break;
    case Construction::Other: return "verdict comes from neither gamma nor Lemma 4";
  }
  if (failed.size() != wantFailed) {
    return "failed set has " + std::to_string(failed.size()) +
           " processes, the construction needs " + std::to_string(wantFailed);
  }
  if (witness.failedEndpoints() != failed) {
    return "witness fails a different set than the verdict names";
  }

  const auto sys = buildSystem(spec);
  boosting::ioa::SystemState s = sys->initialState();
  std::size_t index = 0;
  for (const boosting::ioa::Action& a : witness.actions()) {
    // Inputs and failures come from the environment; every other action
    // must be what some task of the current state enables.
    if (a.kind != ActionKind::EnvInit && a.kind != ActionKind::Fail) {
      bool enabled = false;
      for (const boosting::ioa::TaskId& t : sys->allTasks()) {
        const auto e = sys->enabled(s, t);
        if (e && *e == a) {
          enabled = true;
          break;
        }
      }
      if (!enabled) {
        return "witness action " + std::to_string(index) + " (" + a.str() +
               ") is not enabled on replay";
      }
    }
    sys->applyInPlace(s, a);
    ++index;
  }
  for (int i = 0; i < sys->processCount(); ++i) {
    if (failed.count(i)) continue;
    const auto& ps = boosting::processes::ProcessBase::stateOf(
        s.part(sys->slotForProcess(i)));
    if (!ps.input.isNil() && ps.decision.isNil()) return "";
  }
  return "every correct process with an input decided on replay";
}

// -- SpanLog -------------------------------------------------------------------

std::int64_t SpanLog::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int SpanLog::open(std::string name, int parent, std::uint64_t job) {
  spans_.push_back(Span{std::move(name), now(), -1, parent, job});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::close(int span) { spans_[span].endNs = now(); }

int SpanLog::add(std::string name, int parent, std::uint64_t job,
                 std::int64_t startNs, std::int64_t endNs) {
  spans_.push_back(Span{std::move(name), startNs, endNs, parent, job});
  return static_cast<int>(spans_.size() - 1);
}

std::int64_t SpanLog::selfNs(int span) const {
  std::int64_t self = totalNs(span);
  for (const Span& s : spans_) {
    if (s.parent == span) self -= s.endNs - s.startNs;
  }
  return self;
}

std::string SpanLog::check() const {
  const std::size_t n = spans_.size();
  std::vector<std::int64_t> childSum(n, 0);
  std::vector<int> root(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    const std::string who = "span " + std::to_string(i) + " (" + s.name + ")";
    if (s.endNs < s.startNs) return who + " is not closed";
    if (s.parent < 0) {
      root[i] = static_cast<int>(i);
      continue;
    }
    if (s.parent >= static_cast<int>(i)) return who + " precedes its parent";
    const Span& p = spans_[s.parent];
    if (s.startNs < p.startNs || s.endNs > p.endNs) {
      return who + " lies outside its parent " + p.name;
    }
    if (s.job != p.job) return who + " belongs to another job than its parent";
    childSum[s.parent] += s.endNs - s.startNs;
    root[i] = root[s.parent];
  }
  std::vector<std::int64_t> selfSum(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t total = spans_[i].endNs - spans_[i].startNs;
    if (childSum[i] > total) {
      return "children of span " + std::to_string(i) + " (" + spans_[i].name +
             ") take longer than it does";
    }
    selfSum[root[i]] += total - childSum[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (root[i] == static_cast<int>(i) && selfSum[i] != totalNs(i)) {
      return "self times of tree " + spans_[i].name + " do not add up";
    }
  }
  return "";
}

bool SpanLog::writeJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    boosting::serve::WireObject o;
    o["id"] = boosting::serve::WireValue::ofInt(static_cast<std::int64_t>(i));
    o["name"] = boosting::serve::WireValue::ofStr(s.name);
    o["start_ns"] = boosting::serve::WireValue::ofInt(s.startNs);
    o["end_ns"] = boosting::serve::WireValue::ofInt(s.endNs);
    o["parent"] = boosting::serve::WireValue::ofInt(s.parent);
    o["job"] = boosting::serve::WireValue::ofInt(static_cast<std::int64_t>(s.job));
    o["self_ns"] = boosting::serve::WireValue::ofInt(selfNs(static_cast<int>(i)));
    out << boosting::serve::writeWireObject(o) << "\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench

// Golden verdict table: every row of tests/golden/verdicts.jsonl (written by
// tools/golden_verdicts.py from boosting_analyze's output) is re-run
// in-process with the CLI's configuration and compared field by field --
// verdict, failed set, Lemma-4 valences, hook tasks, Lemma-8
// classification, state count, witness length and witness digest. Each
// witness is then replayed on a freshly built System: every locally
// controlled action must be enabled when it is applied, the failed set must
// match the verdict's, and a termination witness must end with a correct
// process that has an input and no decision.
//
// A refactor of the engine must reproduce the table exactly; a change that
// is meant to alter a row regenerates the table and says why.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/adversary.h"
#include "processes/process.h"
#include "serve/candidates.h"
#include "serve/wire.h"
#include "sim/trace_io.h"

namespace boosting {
namespace {

using analysis::AdversaryReport;

std::vector<serve::WireObject> loadTable() {
  std::ifstream in(BOOSTING_GOLDEN_TABLE);
  std::vector<serve::WireObject> rows;
  std::string line;
  int lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty()) continue;
    serve::WireObject row;
    std::string error;
    if (!serve::parseWireObject(line, &row, &error)) {
      ADD_FAILURE() << "verdicts.jsonl:" << lineNo << ": " << error;
      continue;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string verdictWord(AdversaryReport::Verdict v) {
  switch (v) {
    case AdversaryReport::Verdict::SafetyViolation: return "SAFETY VIOLATION";
    case AdversaryReport::Verdict::TerminationViolation:
      return "TERMINATION VIOLATION";
    case AdversaryReport::Verdict::Inconclusive: return "INCONCLUSIVE";
  }
  return "";
}

std::string joined(const std::set<int>& s) {
  std::string out;
  for (int i : s) out += (out.empty() ? "" : ",") + std::to_string(i);
  return out;
}

std::string fnv1a64(const std::string& data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// Replays `report.witness` on a fresh System; "" when it holds up.
std::string replayWitness(const std::string& candidate, int n, int f,
                          const AdversaryReport& report) {
  std::string error;
  const auto sys = serve::buildCandidateSystem(candidate, n, f, &error);
  if (!sys) return error;
  if (report.witness.failedEndpoints() != report.witnessFailures) {
    return "witness fails a different set than the verdict names";
  }
  ioa::SystemState s = sys->initialState();
  std::size_t index = 0;
  for (const ioa::Action& a : report.witness.actions()) {
    // Inputs and failures come from the environment; every other action
    // must be what some task of the current state enables.
    if (a.kind != ioa::ActionKind::EnvInit && a.kind != ioa::ActionKind::Fail) {
      bool enabled = false;
      for (const ioa::TaskId& t : sys->allTasks()) {
        const auto e = sys->enabled(s, t);
        if (e && *e == a) {
          enabled = true;
          break;
        }
      }
      if (!enabled) {
        return "action " + std::to_string(index) + " (" + a.str() +
               ") is not enabled on replay";
      }
    }
    sys->applyInPlace(s, a);
    ++index;
  }
  if (report.verdict != AdversaryReport::Verdict::TerminationViolation) {
    return "";
  }
  for (int i = 0; i < sys->processCount(); ++i) {
    if (report.witnessFailures.count(i)) continue;
    const auto& ps =
        processes::ProcessBase::stateOf(s.part(sys->slotForProcess(i)));
    if (!ps.input.isNil() && ps.decision.isNil()) return "";
  }
  return "every correct process with an input decided on replay";
}

TEST(GoldenVerdicts, TableCoversEveryCandidateInBothModes) {
  const auto rows = loadTable();
  std::set<std::string> cells;
  for (const auto& row : rows) {
    cells.insert(serve::getStr(row, "candidate") + "/" +
                 serve::getStr(row, "symmetry") + "/" +
                 serve::getStr(row, "por"));
  }
  for (const char* c : {"relay", "bridge", "tob", "flooding", "single-fd"}) {
    for (const char* m : {"off", "auto"}) {
      EXPECT_TRUE(cells.count(std::string(c) + "/" + m + "/" + m))
          << c << " has no " << m << "/" << m << " row";
    }
  }
}

TEST(GoldenVerdicts, EveryRowReproducesAndItsWitnessReplays) {
  const auto rows = loadTable();
  ASSERT_FALSE(rows.empty()) << "cannot read " << BOOSTING_GOLDEN_TABLE;
  for (const auto& row : rows) {
    const std::string candidate = serve::getStr(row, "candidate");
    const int n = static_cast<int>(serve::getInt(row, "n"));
    const int f = static_cast<int>(serve::getInt(row, "f"));
    const std::string label = candidate + " n=" + std::to_string(n) +
                              " f=" + std::to_string(f) + " " +
                              serve::getStr(row, "symmetry") + "/" +
                              serve::getStr(row, "por");
    SCOPED_TRACE(label);

    // The row is a request as the CLI would take it: checked, then mapped
    // onto the adversary configuration by the shared code.
    serve::AnalysisRequest req;
    req.candidate = candidate;
    req.n = n;
    req.f = f;
    req.claim = static_cast<int>(serve::getInt(row, "claim"));
    auto rejected = serve::parseMode(
        "symmetry", serve::getStr(row, "symmetry"), &req.symmetry);
    if (!rejected) {
      rejected = serve::parseMode("por", serve::getStr(row, "por"), &req.por);
    }
    if (!rejected) rejected = serve::checkRequest(req);
    ASSERT_FALSE(rejected) << *rejected;
    std::string error;
    const auto sys = serve::buildCandidateSystem(candidate, n, f, &error);
    ASSERT_TRUE(sys) << error;
    const AdversaryReport report =
        analysis::analyzeConsensusCandidate(*sys, serve::adversaryConfig(req));

    std::string inits;
    for (const auto& init : report.initializations) {
      inits += (inits.empty() ? "" : ",") +
               std::string(analysis::valenceName(init.valence));
    }
    const std::string witness =
        report.witness.empty() ? "" : sim::renderExecution(report.witness);

    EXPECT_EQ(verdictWord(report.verdict), serve::getStr(row, "verdict"));
    EXPECT_EQ(joined(report.witnessFailures), serve::getStr(row, "failed"));
    EXPECT_EQ(report.summary(), serve::getStr(row, "summary"));
    EXPECT_EQ(inits, serve::getStr(row, "initializations"));
    EXPECT_EQ(report.hook ? report.hook->e.str() : "",
              serve::getStr(row, "hook_e"));
    EXPECT_EQ(report.hook ? report.hook->ePrime.str() : "",
              serve::getStr(row, "hook_e_prime"));
    EXPECT_EQ(report.hook
                  ? std::string(analysis::valenceName(
                        report.hook->alpha0Valence)) +
                        "/" + analysis::valenceName(report.hook->alpha1Valence)
                  : "",
              serve::getStr(row, "hook_valences"));
    EXPECT_EQ(report.hook ? report.classification.narrative : "",
              serve::getStr(row, "classification"));
    EXPECT_EQ(static_cast<std::int64_t>(report.statesExplored),
              serve::getInt(row, "states_explored", -1));
    EXPECT_EQ(static_cast<std::int64_t>(report.witness.size()),
              serve::getInt(row, "witness_actions", -1));
    EXPECT_EQ(witness.empty() ? "" : fnv1a64(witness),
              serve::getStr(row, "witness_fnv1a"));
    EXPECT_EQ(report.symmetryReduced, serve::getBool(row, "sym_active"));
    EXPECT_EQ(report.porReduced, serve::getBool(row, "por_active"));
    EXPECT_EQ(replayWitness(candidate, n, f, report), "");
  }
}

}  // namespace
}  // namespace boosting

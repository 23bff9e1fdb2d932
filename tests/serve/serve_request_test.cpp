// The shared analysis request (serve/candidates.h): every rejection both
// front ends must make, the auto|off mode spelling, the request ->
// AdversaryConfig mapping and the exit-code convention.
#include "serve/candidates.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace boosting::serve {
namespace {

AnalysisRequest relay(int n, int f) {
  AnalysisRequest req;
  req.candidate = "relay";
  req.n = n;
  req.f = f;
  return req;
}

TEST(ServeRequest, DomainChecksRejectByField) {
  auto withClaim = [](AnalysisRequest req, int claim) {
    req.claim = claim;
    return req;
  };
  AnalysisRequest unknown = relay(3, 1);
  unknown.candidate = "banana";
  const std::pair<AnalysisRequest, const char*> cases[] = {
      {withClaim(relay(3, 1), -5), "claim: value -5 out of range [1, 19]"},
      {withClaim(relay(3, 1), 0), "claim: value 0 out of range [1, 19]"},
      {relay(1, 0), "n: value 1 out of range [2, 20]"},
      {relay(21, 1), "n: value 21 out of range [2, 20]"},
      {relay(3, -1), "f: value -1 out of range [0, 19]"},
      {relay(3, 3), "f: service resilience 3 must be smaller than n 3"},
      {relay(3, 5), "f: service resilience 5 must be smaller than n 3"},
      {withClaim(relay(3, 0), 3),
       "claim: claimed failures 3 must be smaller than n 3 (the theorems "
       "assume f+1 <= n-1)"},
      // The default claim f+1 is checked like an explicit one.
      {relay(3, 2),
       "claim: claimed failures 3 must be smaller than n 3 (the theorems "
       "assume f+1 <= n-1)"},
      {unknown, "candidate: unknown candidate 'banana'"},
  };
  for (const auto& [req, want] : cases) {
    EXPECT_EQ(checkRequest(req).value_or("accepted"), want);
  }
}

TEST(ServeRequest, AcceptsTheTheoremsDomain) {
  for (const char* candidate :
       {"relay", "bridge", "tob", "flooding", "single-fd"}) {
    AnalysisRequest req = relay(3, 1);
    req.candidate = candidate;
    EXPECT_FALSE(checkRequest(req)) << candidate;
  }
  EXPECT_FALSE(checkRequest(relay(20, 18)));
}

TEST(ServeRequest, ModesAreSpelledAutoOrOff) {
  analysis::SymmetryMode sym = analysis::SymmetryMode::Off;
  EXPECT_FALSE(parseMode("symmetry", "auto", &sym));
  EXPECT_EQ(sym, analysis::SymmetryMode::Auto);
  analysis::PorMode por = analysis::PorMode::Auto;
  EXPECT_FALSE(parseMode("por", "off", &por));
  EXPECT_EQ(por, analysis::PorMode::Off);

  for (const std::string text : {"on", "banana", "", "AUTO"}) {
    EXPECT_EQ(parseMode("symmetry", text, &sym).value_or("accepted"),
              "symmetry: expected auto|off, got '" + text + "'");
    EXPECT_EQ(parseMode("por", text, &por).value_or("accepted"),
              "por: expected auto|off, got '" + text + "'");
  }
  // A rejected spelling leaves the mode as it was.
  EXPECT_EQ(sym, analysis::SymmetryMode::Auto);
  EXPECT_EQ(por, analysis::PorMode::Off);
}

TEST(ServeRequest, AdversaryConfigMapsTheRequest) {
  AnalysisRequest req = relay(5, 2);
  req.symmetry = analysis::SymmetryMode::Off;
  analysis::AdversaryConfig cfg = adversaryConfig(req);
  EXPECT_EQ(cfg.claimedFailures, 3);  // default f + 1
  EXPECT_TRUE(cfg.exemptFailureAware);
  EXPECT_EQ(cfg.symmetry, analysis::SymmetryMode::Off);
  EXPECT_EQ(cfg.por, analysis::PorMode::Auto);
  EXPECT_FALSE(cfg.memo);
  EXPECT_EQ(cfg.exploration.metrics, nullptr);

  req.claim = 4;
  EXPECT_EQ(adversaryConfig(req).claimedFailures, 4);
}

TEST(ServeRequest, ExitCodeIsOneIffInconclusive) {
  analysis::AdversaryReport report;
  report.verdict = analysis::AdversaryReport::Verdict::Inconclusive;
  EXPECT_EQ(exitCodeFor(report), 1);
  report.verdict = analysis::AdversaryReport::Verdict::TerminationViolation;
  EXPECT_EQ(exitCodeFor(report), 0);
  report.verdict = analysis::AdversaryReport::Verdict::SafetyViolation;
  EXPECT_EQ(exitCodeFor(report), 0);
}

}  // namespace
}  // namespace boosting::serve

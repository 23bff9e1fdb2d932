#include "serve/candidates.h"

#include <cstdio>

#include "processes/flooding_consensus.h"
#include "processes/relay_consensus.h"
#include "processes/rotating_consensus.h"
#include "processes/tob_consensus.h"

namespace boosting::serve {

namespace {

bool isKnownCandidate(const std::string& candidate) {
  return candidate == "relay" || candidate == "bridge" ||
         candidate == "tob" || candidate == "flooding" ||
         candidate == "single-fd";
}

std::string fmt(const char* f, auto... args) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, args...);
  return buf;
}

}  // namespace

std::optional<std::string> checkRequest(const AnalysisRequest& req) {
  if (!isKnownCandidate(req.candidate)) {
    return "candidate: unknown candidate '" + req.candidate + "'";
  }
  if (req.n < 2 || req.n > 20) {
    return fmt("n: value %d out of range [2, 20]", req.n);
  }
  if (req.f < 0 || req.f > 19) {
    return fmt("f: value %d out of range [0, 19]", req.f);
  }
  if (req.claim && (*req.claim < 1 || *req.claim > 19)) {
    return fmt("claim: value %d out of range [1, 19]", *req.claim);
  }
  if (req.f >= req.n) {
    return fmt("f: service resilience %d must be smaller than n %d", req.f,
               req.n);
  }
  if (req.claimedFailures() >= req.n) {
    return fmt("claim: claimed failures %d must be smaller than n %d (the "
               "theorems assume f+1 <= n-1)",
               req.claimedFailures(), req.n);
  }
  return std::nullopt;
}

analysis::AdversaryConfig adversaryConfig(const AnalysisRequest& req) {
  analysis::AdversaryConfig cfg;
  cfg.claimedFailures = req.claimedFailures();
  cfg.exemptFailureAware = true;
  cfg.symmetry = req.symmetry;
  cfg.por = req.por;
  return cfg;
}

int exitCodeFor(const analysis::AdversaryReport& report) {
  return report.verdict == analysis::AdversaryReport::Verdict::Inconclusive
             ? 1
             : 0;
}

std::unique_ptr<ioa::System> buildCandidateSystem(const std::string& candidate,
                                                  int n, int f,
                                                  std::string* error) {
  const auto policy = services::DummyPolicy::PreferDummy;
  if (candidate == "relay") {
    processes::RelaySystemSpec spec;
    spec.processCount = n;
    spec.objectResilience = f;
    spec.policy = policy;
    return processes::buildRelayConsensusSystem(spec);
  }
  if (candidate == "bridge") {
    processes::BridgeSystemSpec spec;
    spec.processCount = n;
    spec.bridgeEndpoint = n / 2;
    spec.objectResilience = f;
    spec.policy = policy;
    return processes::buildBridgeConsensusSystem(spec);
  }
  if (candidate == "tob") {
    processes::TOBConsensusSpec spec;
    spec.processCount = n;
    spec.serviceResilience = f;
    spec.policy = policy;
    return processes::buildTOBConsensusSystem(spec);
  }
  if (candidate == "flooding") {
    processes::FloodingConsensusSpec spec;
    spec.processCount = n;
    spec.channelResilience = f;
    spec.policy = policy;
    return processes::buildFloodingConsensusSystem(spec);
  }
  if (candidate == "single-fd") {
    processes::SingleFDConsensusSpec spec;
    spec.processCount = n;
    spec.fdResilience = f;
    spec.policy = policy;
    return processes::buildSingleFDRotatingConsensusSystem(spec);
  }
  if (error) *error = "unknown candidate '" + candidate + "'";
  return nullptr;
}

}  // namespace boosting::serve

// The analysis request shared by the one-shot CLI (boosting_analyze) and
// the resident service (boosting_served): its domain checks, mode
// spelling, adversary configuration, exit code and candidate factory.
// The service's verdicts are asserted byte-identical to the CLI's, which
// only holds if both front ends build identical systems and settings, so
// all of it lives here, in one place.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "analysis/adversary.h"
#include "ioa/system.h"

namespace boosting::serve {

// One candidate analysis. Field names are the wire keys; the CLI flags are
// the same names with a leading "--".
struct AnalysisRequest {
  std::string candidate = "relay";
  int n = 2;                 // process count
  int f = 0;                 // service resilience
  std::optional<int> claim;  // claimed tolerated failures; default f + 1
  analysis::SymmetryMode symmetry = analysis::SymmetryMode::Auto;
  analysis::PorMode por = analysis::PorMode::Auto;

  int claimedFailures() const { return claim.value_or(f + 1); }
};

// The paper's theorems apply when 0 <= f < n-1 with claimed resilience
// f+1 <= n-1: the candidate must be known, n in [2, 20], f in [0, 19], an
// explicit claim in [1, 19], f < n and the (defaulted) claim < n. A
// rejection names the field first ("f: ..."); the CLI prints it after the
// flag's "--".
std::optional<std::string> checkRequest(const AnalysisRequest& req);

// Reduction modes are spelled "auto" or "off". `auto` enables the
// reduction exactly when the candidate supports it; the CLI then reports
// why it stayed off when it could not be applied.
template <class Mode>
std::optional<std::string> parseMode(std::string_view field,
                                     std::string_view text, Mode* out) {
  if (text != "auto" && text != "off") {
    return std::string(field) + ": expected auto|off, got '" +
           std::string(text) + "'";
  }
  *out = text == "off" ? Mode::Off : Mode::Auto;
  return std::nullopt;
}

// The adversary configuration of a checked request. Callers add their own
// metrics sink, expansion hook and memo.
analysis::AdversaryConfig adversaryConfig(const AnalysisRequest& req);

// The front ends' exit code for a verdict: 1 iff Inconclusive.
int exitCodeFor(const analysis::AdversaryReport& report);

// Build the candidate system, or return nullptr with *error set when the
// candidate name is unknown. `n` is the process count, `f` the service
// resilience; the factory only dispatches on the name (checkRequest holds
// the domain checks).
std::unique_ptr<ioa::System> buildCandidateSystem(const std::string& candidate,
                                                  int n, int f,
                                                  std::string* error);

}  // namespace boosting::serve

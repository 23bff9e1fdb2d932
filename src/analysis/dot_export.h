// Graphviz export of (a neighbourhood of) the execution graph G(C), with
// vertices coloured by valence and an optional hook highlighted -- a
// faithful, machine-generated rendition of the paper's Fig. 2.
//
// Intended for the small systems the analysis engine runs on: the export
// walks breadth-first from a root up to a node budget, so even infinite-
// patience users get bounded output.
#pragma once

#include <optional>
#include <string>

#include "analysis/hook.h"
#include "analysis/valence.h"

namespace boosting::analysis {

struct DotOptions {
  std::size_t maxNodes = 200;
  bool includeStateLabels = false;  // full state dumps make huge nodes
  std::optional<Hook> highlightHook;
};

// Render the reachable region of `root` (explored on demand) as a DOT
// digraph: a breadth-first walk over g.exploreSuccessors() up to
// maxNodes, plus the highlighted hook's nodes and edges. Valence colours:
// bivalent = khaki, 0-valent = lightblue, 1-valent = salmon, null = gray;
// a node the valence analysis never explored is white and unlabelled.
std::string exportDot(StateGraph& g, ValenceAnalyzer& va, NodeId root,
                      const DotOptions& options = DotOptions{});

}  // namespace boosting::analysis

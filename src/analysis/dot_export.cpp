#include "analysis/dot_export.h"

#include <algorithm>
#include <deque>
#include <set>
#include <vector>

#include "analysis/dense.h"

namespace boosting::analysis {

namespace {

const char* fillFor(Valence v) {
  switch (v) {
    case Valence::Bivalent: return "khaki";
    case Valence::Zero: return "lightblue";
    case Valence::One: return "salmon";
    case Valence::Null: return "gray85";
  }
  return "white";
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

std::string exportDot(StateGraph& g, ValenceAnalyzer& va, NodeId root,
                      const DotOptions& options) {
  va.explore(root);

  // The hook's own edges are drawn even where the walked tier lacks them:
  // the hook search follows full-tier edges that a POR tier may skip.
  struct HookEdge {
    NodeId from, to;
    ioa::TaskId task;
  };
  std::vector<HookEdge> hookEdges;
  if (options.highlightHook) {
    const Hook& h = *options.highlightHook;
    hookEdges = {{h.alpha, h.alpha0, h.e},
                 {h.alpha, h.alphaPrime, h.ePrime},
                 {h.alphaPrime, h.alpha1, h.e}};
  }

  std::string out = "digraph GC {\n  rankdir=TB;\n  node [style=filled];\n";
  std::deque<NodeId> frontier{root};
  DenseNodeSet seen(g.size());
  seen.insert(root);
  std::vector<NodeId> nodes;
  while (!frontier.empty() && nodes.size() < options.maxNodes) {
    const NodeId x = frontier.front();
    frontier.pop_front();
    nodes.push_back(x);
    for (const EdgeView e : g.exploreSuccessors(x)) {
      if (seen.insert(e.to)) frontier.push_back(e.to);
    }
  }
  std::set<NodeId> included(nodes.begin(), nodes.end());
  for (const HookEdge& h : hookEdges) {
    for (NodeId x : {h.from, h.to}) {
      if (included.insert(x).second) nodes.push_back(x);
    }
  }

  for (NodeId x : nodes) {
    // Nodes only the hook search reached carry no valence certificate.
    const bool known = va.explored(x);
    std::string label = "n" + std::to_string(x);
    if (known) label += std::string("\\n") + valenceName(va.valence(x));
    if (options.includeStateLabels) {
      label += "\\n" + escape(g.state(x).str());
    }
    out += "  n" + std::to_string(x) + " [label=\"" + label +
           "\", fillcolor=" + (known ? fillFor(va.valence(x)) : "white") +
           "];\n";
  }
  const auto edgeLine = [](NodeId from, NodeId to, const ioa::TaskId& task,
                           bool red) {
    return "  n" + std::to_string(from) + " -> n" + std::to_string(to) +
           " [label=\"" + escape(task.str()) + "\"" +
           (red ? ", color=red, penwidth=2.5" : "") + "];\n";
  };
  for (NodeId x : nodes) {
    for (const EdgeView e : g.exploreSuccessors(x)) {
      const bool inHook = std::any_of(
          hookEdges.begin(), hookEdges.end(), [&](const HookEdge& h) {
            return h.from == x && h.to == e.to && h.task == e.task;
          });
      if (included.count(e.to) != 0 && !inHook) {
        out += edgeLine(x, e.to, e.task, false);
      }
    }
  }
  for (const HookEdge& h : hookEdges) {
    out += edgeLine(h.from, h.to, h.task, true);
  }
  out += "}\n";
  return out;
}

}  // namespace boosting::analysis

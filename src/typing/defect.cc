#include "typing/defect.h"

#include <set>

#include "util/string_util.h"

namespace schemex::typing {

namespace {

/// Smallest-id member of each type under `tau`, or kInvalidObject.
std::vector<graph::ObjectId> CanonicalMembers(const TypingProgram& program,
                                              const TypeAssignment& tau) {
  std::vector<graph::ObjectId> member(program.NumTypes(),
                                      graph::kInvalidObject);
  for (graph::ObjectId o = 0; o < tau.NumObjects(); ++o) {
    for (TypeId t : tau.TypesOf(o)) {
      if (member[static_cast<size_t>(t)] == graph::kInvalidObject) {
        member[static_cast<size_t>(t)] = o;
      }
    }
  }
  return member;
}

graph::ObjectId SmallestAtomic(graph::GraphView g) {
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (g.IsAtomic(o)) return o;
  }
  return graph::kInvalidObject;
}

}  // namespace

std::string DefectReport::ToString() const {
  return util::StringPrintf("defect=%zu (excess=%zu, deficit=%zu)", defect(),
                            excess, deficit);
}

size_t ComputeExcess(const TypingProgram& program, graph::GraphView g,
                     const TypeAssignment& tau, bool collect_facts,
                     DefectReport* report) {
  size_t excess = 0;
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    const std::vector<TypeId>& from_types = tau.TypesOf(o);
    for (const graph::HalfEdge& e : g.OutEdges(o)) {
      bool used = false;
      if (g.IsAtomic(e.other)) {
        for (TypeId c : from_types) {
          if (program.type(c).signature.Contains(
                  TypedLink::OutAtomic(e.label))) {
            used = true;
            break;
          }
        }
      } else {
        const std::vector<TypeId>& to_types = tau.TypesOf(e.other);
        for (TypeId c : from_types) {
          for (TypeId c2 : to_types) {
            if (program.type(c).signature.Contains(
                    TypedLink::Out(e.label, c2)) ||
                program.type(c2).signature.Contains(
                    TypedLink::In(e.label, c))) {
              used = true;
              break;
            }
          }
          if (used) break;
        }
      }
      if (!used) {
        ++excess;
        if (collect_facts && report != nullptr) {
          report->excess_edges.push_back(EdgeFact{o, e.other, e.label});
        }
      }
    }
  }
  if (report != nullptr) report->excess = excess;
  return excess;
}

size_t ComputeDeficit(const TypingProgram& program, graph::GraphView g,
                      const TypeAssignment& tau, bool collect_facts,
                      DefectReport* report) {
  std::vector<graph::ObjectId> member = CanonicalMembers(program, tau);
  graph::ObjectId atomic_witness = SmallestAtomic(g);

  auto in_type = [&tau](graph::ObjectId x, TypeId t) {
    return tau.Has(x, t);
  };
  std::set<EdgeFact> invented;
  for (graph::ObjectId o = 0; o < tau.NumObjects(); ++o) {
    for (TypeId t : tau.TypesOf(o)) {
      for (const TypedLink& l : program.type(t).signature.links()) {
        if (FindWitness(l, g, o, in_type) != graph::kInvalidObject) continue;
        graph::ObjectId w = l.target == kAtomicType
                                ? atomic_witness
                                : member[static_cast<size_t>(l.target)];
        invented.insert(l.dir == Direction::kOutgoing
                            ? EdgeFact{o, w, l.label}
                            : EdgeFact{w, o, l.label});
      }
    }
  }
  if (report != nullptr) {
    report->deficit = invented.size();
    if (collect_facts) {
      report->invented_edges.assign(invented.begin(), invented.end());
    }
  }
  return invented.size();
}

DefectReport ComputeDefect(const TypingProgram& program,
                           graph::GraphView g,
                           const TypeAssignment& tau, bool collect_facts) {
  DefectReport report;
  ComputeExcess(program, g, tau, collect_facts, &report);
  ComputeDeficit(program, g, tau, collect_facts, &report);
  return report;
}

TypeAssignment ExtentsToAssignment(const Extents& m) {
  size_t n = m.per_type.empty() ? 0 : m.per_type[0].size();
  TypeAssignment tau(n);
  for (size_t t = 0; t < m.per_type.size(); ++t) {
    m.per_type[t].ForEach([&](size_t o) {
      tau.Assign(static_cast<graph::ObjectId>(o), static_cast<TypeId>(t));
    });
  }
  return tau;
}

}  // namespace schemex::typing

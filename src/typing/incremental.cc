#include "typing/incremental.h"

#include <vector>

#include "typing/gfp.h"
#include "typing/recast.h"

namespace schemex::typing {

bool TypeArrival(const TypingProgram& program, graph::GraphView g,
                 TypeAssignment* tau, graph::ObjectId arrival) {
  // Greatest fixpoint restricted to the arrival: start from every type and
  // drop each one whose signature fails until none does. Other objects
  // count through their types in *tau; the arrival itself (reached only
  // through self-loops) counts through the surviving candidates.
  std::vector<bool> candidate(program.NumTypes(), true);
  auto in_type = [&](graph::ObjectId x, TypeId t) {
    return x == arrival ? candidate[static_cast<size_t>(t)] : tau->Has(x, t);
  };
  auto satisfies = [&](TypeId t) {
    for (const TypedLink& l : program.type(t).signature.links()) {
      if (FindWitness(l, g, arrival, in_type) == graph::kInvalidObject) {
        return false;
      }
    }
    return true;
  };
  for (bool dropped = true; dropped;) {
    dropped = false;
    for (size_t t = 0; t < candidate.size(); ++t) {
      if (candidate[t] && !satisfies(static_cast<TypeId>(t))) {
        candidate[t] = false;
        dropped = true;
      }
    }
  }
  bool fits = false;
  for (size_t t = 0; t < candidate.size(); ++t) {
    if (candidate[t]) {
      tau->Assign(arrival, static_cast<TypeId>(t));
      fits = true;
    }
  }
  if (fits) return true;
  TypeId nearest = NearestType(program, g, *tau, arrival);
  if (nearest != kInvalidType) tau->Assign(arrival, nearest);
  return false;
}

bool RetypeRecommended(size_t num_added, size_t num_fallback,
                       double misfit_fraction, size_t min_arrivals) {
  if (num_added < min_arrivals) return false;
  return static_cast<double>(num_fallback) >
         misfit_fraction * static_cast<double>(num_added);
}

}  // namespace schemex::typing

#include "typing/incremental.h"

#include "typing/gfp.h"
#include "typing/recast.h"

namespace schemex::typing {

bool SatisfiesUnderAssignment(const TypeSignature& sig, graph::GraphView g,
                              const TypeAssignment& tau, graph::ObjectId o) {
  auto in_type = [&tau](graph::ObjectId x, TypeId t) {
    return tau.Has(x, t);
  };
  for (const TypedLink& l : sig.links()) {
    if (FindWitness(l, g, o, in_type) == graph::kInvalidObject) return false;
  }
  return true;
}

bool TypeArrival(const TypingProgram& program, graph::GraphView g,
                 TypeAssignment* tau, graph::ObjectId arrival) {
  bool fits = false;
  for (size_t t = 0; t < program.NumTypes(); ++t) {
    auto tid = static_cast<TypeId>(t);
    if (SatisfiesUnderAssignment(program.type(tid).signature, g, *tau,
                                 arrival)) {
      tau->Assign(arrival, tid);
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

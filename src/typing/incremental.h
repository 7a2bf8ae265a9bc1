#ifndef SCHEMEX_TYPING_INCREMENTAL_H_
#define SCHEMEX_TYPING_INCREMENTAL_H_

#include <cstddef>

#include "graph/graph_view.h"
#include "typing/assignment.h"
#include "typing/typing_program.h"

namespace schemex::typing {

/// Online typing of one object arriving after extraction (§6): "First we
/// assign the new objects to all types that it satisfies completely. If
/// the object cannot be assigned any type precisely, then we assign it
/// to the closest type, in terms of the simple distance function d."
///
/// `arrival` must lie inside `tau`'s object space. It joins every type of
/// the greatest fixpoint restricted to it: the largest set S of types it
/// satisfies when every other object counts through its types in `*tau`
/// and the arrival itself (seen only through self-loops) counts as a
/// member of exactly S. The result does not depend on the order of the
/// program's types. Failing all of them it gets NearestType. Returns
/// whether the arrival fit exactly. An empty program leaves it untyped.
bool TypeArrival(const TypingProgram& program, graph::GraphView g,
                 TypeAssignment* tau, graph::ObjectId arrival);

/// The paper's "if we have many new objects we may wish to reconsider
/// the current typing program", made concrete: true when more than
/// `misfit_fraction` of at least `min_arrivals` arrivals needed the
/// distance fallback.
bool RetypeRecommended(size_t num_added, size_t num_fallback,
                       double misfit_fraction = 0.25,
                       size_t min_arrivals = 10);

}  // namespace schemex::typing

#endif  // SCHEMEX_TYPING_INCREMENTAL_H_

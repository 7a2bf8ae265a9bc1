#include "extract/prior.h"

#include "graph/subgraph.h"
#include "typing/defect.h"
#include "typing/gfp.h"
#include "typing/recast.h"

namespace schemex::extract {

util::StatusOr<PriorExtractionResult> ExtractWithPrior(
    graph::GraphView g, const typing::TypingProgram& prior,
    const ExtractorOptions& options) {
  SCHEMEX_RETURN_IF_ERROR(prior.Validate());
  PriorExtractionResult result;
  result.num_prior_types = prior.NumTypes();

  // 1. Claim objects with the prior.
  SCHEMEX_ASSIGN_OR_RETURN(typing::Extents prior_extents,
                           typing::ComputeGfp(prior, g));
  std::vector<bool> claimed(g.NumObjects(), false);
  for (const auto& ext : prior_extents.per_type) {
    ext.ForEach([&](size_t o) { claimed[o] = true; });
  }
  std::vector<graph::ObjectId> unclaimed;
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (g.IsComplex(o)) {
      if (claimed[o]) {
        ++result.num_prior_claimed;
      } else {
        unclaimed.push_back(o);
      }
    }
  }

  // 2-3. Extract over the unclaimed remainder.
  std::vector<std::vector<typing::TypeId>> homes(g.NumObjects());
  result.program = prior;
  if (!unclaimed.empty()) {
    std::vector<graph::ObjectId> old_to_new;
    const graph::FrozenGraph rest(
        graph::InducedSubgraph(g, unclaimed, {}, &old_to_new));
    SchemaExtractor extractor(options);
    SCHEMEX_ASSIGN_OR_RETURN(ExtractionResult sub, extractor.Run(rest));
    result.num_new_types = sub.final_program.NumTypes();

    // 4. Append discovered types, offsetting their internal targets.
    const typing::TypeId offset =
        static_cast<typing::TypeId>(prior.NumTypes());
    std::vector<typing::TypeId> shift(sub.final_program.NumTypes());
    for (size_t t = 0; t < shift.size(); ++t) {
      shift[t] = static_cast<typing::TypeId>(t) + offset;
    }
    for (size_t t = 0; t < sub.final_program.NumTypes(); ++t) {
      typing::TypeSignature sig =
          sub.final_program.type(static_cast<typing::TypeId>(t)).signature;
      sig.RemapTargets(shift);
      result.program.AddType(
          sub.final_program.type(static_cast<typing::TypeId>(t)).name,
          std::move(sig));
    }

    // 5. Pull the subgraph homes back to full-graph object ids.
    for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
      if (old_to_new[o] == graph::kInvalidObject ||
          !g.IsComplex(o)) {
        continue;
      }
      for (typing::TypeId t : sub.final_homes[old_to_new[o]]) {
        homes[o].push_back(t + offset);
      }
    }
  }

  // 6-7. Recast the whole database and measure.
  SCHEMEX_ASSIGN_OR_RETURN(
      result.recast,
      typing::Recast(result.program, g, homes, options.recast));
  result.defect =
      typing::ComputeDefect(result.program, g, result.recast.assignment);
  return result;
}

}  // namespace schemex::extract

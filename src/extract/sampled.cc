#include "extract/sampled.h"

#include <algorithm>

#include "graph/subgraph.h"
#include "typing/defect.h"
#include "util/random.h"

namespace schemex::extract {

util::StatusOr<SampledExtractionResult> ExtractFromSample(
    graph::GraphView g, const SampleOptions& options) {
  if (options.sample_complex_objects == 0) {
    return util::Status::InvalidArgument("sample size must be > 0");
  }
  // Choose the sampled complex objects.
  std::vector<graph::ObjectId> complex_objects;
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (g.IsComplex(o)) complex_objects.push_back(o);
  }
  util::Rng rng(options.seed);
  std::vector<size_t> picks = rng.SampleIndices(
      complex_objects.size(),
      std::min(options.sample_complex_objects, complex_objects.size()));
  std::sort(picks.begin(), picks.end());

  // Build and freeze the induced sample. InducedSubgraph shares g's label
  // table, so the extracted program's label ids apply to the full graph
  // directly.
  std::vector<graph::ObjectId> kept;
  kept.reserve(picks.size());
  for (size_t idx : picks) kept.push_back(complex_objects[idx]);
  const graph::FrozenGraph sample(graph::InducedSubgraph(g, kept));

  // Extract on the sample.
  SchemaExtractor extractor(options.extract);
  SCHEMEX_ASSIGN_OR_RETURN(ExtractionResult sample_result,
                           extractor.Run(sample));

  SampledExtractionResult result;
  result.program = std::move(sample_result.final_program);
  result.sample_complex = sample.NumComplexObjects();
  result.sample_edges = sample.NumEdges();
  result.sample_perfect_types = sample_result.num_perfect_types;

  // Recast the FULL database (no homes — only sampled objects had them).
  std::vector<std::vector<typing::TypeId>> no_homes(g.NumObjects());
  SCHEMEX_ASSIGN_OR_RETURN(
      result.recast,
      typing::Recast(result.program, g, no_homes, options.extract.recast));
  result.defect =
      typing::ComputeDefect(result.program, g, result.recast.assignment);
  return result;
}

}  // namespace schemex::extract

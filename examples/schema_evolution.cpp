// Schema evolution: extract schemas from two crawls of the "same"
// source (the second one perturbed — pages changed, fields appeared and
// disappeared), diff them, and demonstrate sampling-based extraction on
// a larger crawl.
//
//   $ ./examples/schema_evolution

#include <iostream>

#include "extract/extractor.h"
#include "extract/sampled.h"
#include "gen/dbg.h"
#include "gen/perturb.h"
#include "gen/spec.h"
#include "typing/program_diff.h"
#include "util/string_util.h"

using namespace schemex;  // NOLINT

int main() {
  // --- Two crawls. -------------------------------------------------------
  auto crawl1 = gen::MakeDbgDataset(5);
  if (!crawl1.ok()) {
    std::cerr << crawl1.status() << "\n";
    return 1;
  }
  graph::DataGraph crawl2 = *crawl1;
  gen::PerturbOptions churn;
  churn.delete_links = 8;
  churn.add_links = 20;
  churn.seed = 99;
  (void)gen::Perturb(&crawl2, churn);

  extract::ExtractorOptions opt;
  opt.target_num_types = 6;
  auto s1 = extract::SchemaExtractor(opt).Run(graph::FrozenGraph(*crawl1));
  auto s2 = extract::SchemaExtractor(opt).Run(graph::FrozenGraph(crawl2));
  if (!s1.ok() || !s2.ok()) {
    std::cerr << "extraction failed\n";
    return 1;
  }

  std::cout << util::StringPrintf(
      "crawl 1: %zu objects, schema of %zu types (defect %zu)\n",
      crawl1->NumObjects(), s1->num_final_types, s1->defect.defect());
  std::cout << util::StringPrintf(
      "crawl 2: %zu objects, schema of %zu types (defect %zu)\n\n",
      crawl2.NumObjects(), s2->num_final_types, s2->defect.defect());

  typing::ProgramDiff diff =
      typing::DiffPrograms(s1->final_program, s2->final_program);
  std::cout << "schema diff (crawl1 -> crawl2):\n"
            << diff.ToString(s1->final_program, s2->final_program,
                             crawl2.labels())
            << util::StringPrintf("total drift: %zu typed links\n\n",
                                  diff.total_drift);

  // --- Sampling a big crawl. ----------------------------------------------
  gen::DatasetSpec big_spec = gen::DbgSpec();
  for (auto& t : big_spec.types) t.count *= 40;
  auto big = gen::Generate(big_spec, 123);
  extract::SampleOptions sopt;
  sopt.sample_complex_objects = 800;
  sopt.extract.target_num_types = 6;
  auto sampled = extract::ExtractFromSample(graph::FrozenGraph(*big), sopt);
  if (!sampled.ok()) {
    std::cerr << sampled.status() << "\n";
    return 1;
  }
  std::cout << util::StringPrintf(
      "big crawl: %zu objects; schema extracted from a %zu-object sample\n"
      "(%zu sample perfect types -> 6), then recast over everything:\n"
      "%zu exact, %zu by nearest type, defect %zu over %zu links\n",
      big->NumObjects(), sampled->sample_complex,
      sampled->sample_perfect_types, sampled->recast.num_exact,
      sampled->recast.num_fallback, sampled->defect.defect(),
      big->NumEdges());
  return 0;
}

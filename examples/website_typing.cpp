// Full three-stage pipeline on the DBG-like web-site dataset, with the
// paper's §7.2/§8 interactive workflow: run the sensitivity sweep, find
// the knee of the defect curve automatically, and recast the data at
// that "natural" type count.
//
//   $ ./examples/website_typing

#include <algorithm>
#include <iostream>

#include "extract/extractor.h"
#include "extract/knee.h"
#include "gen/dbg.h"
#include "util/string_util.h"

using namespace schemex;  // NOLINT

int main() {
  auto g = gen::MakeDbgDataset();
  auto f = graph::Freeze(*g);
  if (!g.ok()) {
    std::cerr << g.status() << "\n";
    return 1;
  }
  std::cout << util::StringPrintf("DBG-like dataset: %zu objects, %zu links\n",
                                  g->NumObjects(), g->NumEdges());

  // Sweep k from the perfect typing down to 1 (single clustering run).
  extract::ExtractorOptions opt;
  opt.stage1 = extract::ExtractorOptions::Stage1Algorithm::kGfp;
  auto points = extract::SensitivitySweep(*f, opt);
  if (!points.ok()) {
    std::cerr << points.status() << "\n";
    return 1;
  }
  std::cout << util::StringPrintf("perfect typing: %zu types\n\n",
                                  points->front().k);

  // Pick the "natural" typing via the library's knee heuristic (§7.2's
  // optimal range, exposed as FindKnee / NaturalTypeCounts).
  extract::Knee knee = extract::FindKnee(*points);
  std::vector<size_t> natural = extract::NaturalTypeCounts(*points);
  std::cout << util::StringPrintf(
      "knee of the defect curve: k = %zu (defect %zu; best in range %zu)\n",
      knee.k, knee.defect, knee.best_defect_in_range);
  std::cout << "natural type counts:";
  for (size_t k : natural) std::cout << " " << k;
  std::cout << "\n\n";
  size_t chosen_k = knee.k;

  // Extract at the chosen size and show the program plus Stage-3 stats.
  opt.target_num_types = chosen_k;
  auto r = extract::SchemaExtractor(opt).Run(*f);
  if (!r.ok()) {
    std::cerr << r.status() << "\n";
    return 1;
  }
  std::cout << "final typing program:\n"
            << r->final_program.ToString(g->labels());
  std::cout << util::StringPrintf(
      "\nrecast: %zu objects fit a type exactly, %zu typed by nearest "
      "distance, %zu untyped\nfinal %s\n",
      r->recast.num_exact, r->recast.num_fallback, r->recast.num_untyped,
      r->defect.ToString().c_str());
  return 0;
}

// Regenerates the paper's Figure 6 (sensitivity graph for the DBG data
// set): total clustering distance and defect as a function of the number
// of types in the approximate typing. The paper's observation — a small
// range of type counts (6-10) yields the best defect/size trade-off, with
// the defect exploding for very small k — should be visible in the
// printed series (and the CSV block for plotting).

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "extract/extractor.h"
#include "gen/dbg.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using namespace schemex;  // NOLINT

int Run() {
  auto g = gen::MakeDbgDataset();
  auto f = graph::Freeze(*g);
  if (!g.ok()) {
    std::cerr << g.status() << "\n";
    return 1;
  }
  extract::ExtractorOptions opt;
  opt.stage1 = extract::ExtractorOptions::Stage1Algorithm::kGfp;
  opt.psi = cluster::PsiKind::kPsi2;
  auto points = extract::SensitivitySweep(*f, opt);
  if (!points.ok()) {
    std::cerr << points.status() << "\n";
    return 1;
  }

  std::cout << "== Figure 6: Sensitivity graph for DBG data set ==\n";
  std::cout << util::StringPrintf(
      "DBG dataset: %zu objects, %zu links; perfect typing: %zu types\n\n",
      g->NumObjects(), g->NumEdges(), points->front().k);

  util::TablePrinter table;
  table.SetHeader({"types (k)", "total distance", "defect", "excess",
                   "deficit"});
  for (const auto& p : *points) {
    table.AddRow({util::StringPrintf("%zu", p.k),
                  util::StringPrintf("%.1f", p.total_distance),
                  util::StringPrintf("%zu", p.defect),
                  util::StringPrintf("%zu", p.excess),
                  util::StringPrintf("%zu", p.deficit)});
  }
  table.Print(std::cout);

  // Locate the knee: the k in [2, 15] minimizing defect, echoing the
  // paper's "optimal range 6-10".
  size_t best_k = 0, best_defect = static_cast<size_t>(-1);
  for (const auto& p : *points) {
    if (p.k >= 2 && p.k <= 15 && p.defect < best_defect) {
      best_defect = p.defect;
      best_k = p.k;
    }
  }
  std::cout << util::StringPrintf(
      "\nBest small-k typing: k=%zu with defect %zu (paper: optimal "
      "trade-off in the 6-10 range)\n",
      best_k, best_defect);

  std::cout << "\n-- CSV (k,total_distance,defect) --\n";
  for (const auto& p : *points) {
    std::cout << util::StringPrintf("%zu,%.1f,%zu\n", p.k, p.total_distance,
                                    p.defect);
  }
  return 0;
}

}  // namespace

int main() { return Run(); }

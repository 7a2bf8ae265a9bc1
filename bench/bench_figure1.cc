// Regenerates the paper's Figure 1 (optimal typing program for the DBG
// data set): runs the full pipeline on the DBG-like dataset with a
// 6-type target and prints the resulting program in the paper's
// "<name> : <i> = <typed links>" notation, next to the perfect-type count
// it was condensed from (paper: 53 perfect -> 6 optimal).
//
// The printed program should read like Figure 1: a project type defined
// by incoming member links and name/home-page attributes, a publication
// type with author links, person/student types with project and advisor
// links, and birthday/degree records.

#include <cstdio>
#include <iostream>
#include <map>

#include "extract/extractor.h"
#include "gen/dbg.h"
#include "util/string_util.h"

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
  opt.target_num_types = 6;
  auto r = extract::SchemaExtractor(opt).Run(*f);
  if (!r.ok()) {
    std::cerr << r.status() << "\n";
    return 1;
  }

  std::cout << "== Figure 1: Optimal typing program for DBG data set ==\n";
  std::cout << util::StringPrintf(
      "DBG dataset: %zu objects, %zu links\n"
      "perfect typing: %zu types (paper: 53); optimal typing: %zu types "
      "(paper: 6)\n\n",
      g->NumObjects(), g->NumEdges(), r->num_perfect_types,
      r->num_final_types);

  // Give each final type an intuitive name: the dominant intended role
  // among its home objects (object names are "<role>_<i>").
  std::vector<std::string> display(r->final_program.NumTypes());
  for (size_t t = 0; t < r->final_program.NumTypes(); ++t) {
    std::map<std::string, size_t> votes;
    for (graph::ObjectId o = 0; o < g->NumObjects(); ++o) {
      const auto& homes = r->final_homes[o];
      if (std::find(homes.begin(), homes.end(),
                    static_cast<typing::TypeId>(t)) == homes.end()) {
        continue;
      }
      std::string name = g->Name(o);
      ++votes[name.substr(0, name.rfind('_'))];
    }
    std::string best = "type";
    size_t best_n = 0;
    for (const auto& [role, n] : votes) {
      if (n > best_n) {
        best = role;
        best_n = n;
      }
    }
    display[t] = best;
    r->final_program.type(static_cast<typing::TypeId>(t)).name = best;
  }

  std::cout << r->final_program.ToString(g->labels());
  std::cout << util::StringPrintf(
      "\nfinal defect: %s over %zu links\n",
      r->defect.ToString().c_str(), g->NumEdges());

  // How well do the recovered types track the intended roles?
  std::cout << "\n-- role purity (home objects per recovered type) --\n";
  for (size_t t = 0; t < r->final_program.NumTypes(); ++t) {
    size_t total = 0, majority = 0;
    std::map<std::string, size_t> votes;
    for (graph::ObjectId o = 0; o < g->NumObjects(); ++o) {
      const auto& homes = r->final_homes[o];
      if (std::find(homes.begin(), homes.end(),
                    static_cast<typing::TypeId>(t)) == homes.end()) {
        continue;
      }
      std::string name = g->Name(o);
      ++votes[name.substr(0, name.rfind('_'))];
      ++total;
    }
    for (const auto& [role, n] : votes) majority = std::max(majority, n);
    std::cout << util::StringPrintf(
        "  %-12s %3zu objects, %5.1f%% from role '%s'\n", display[t].c_str(),
        total, total == 0 ? 0.0 : 100.0 * majority / total,
        display[t].c_str());
  }
  return 0;
}

}  // namespace

int main() { return Run(); }

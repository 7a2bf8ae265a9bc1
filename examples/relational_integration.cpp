// Integrating relational data with semistructured data — the paper's §1
// motivation ("irregularities arise naturally when one integrates data
// originating from several distinct (structured) sources that provide
// information about a common set of entities but represent these
// entities differently").
//
// Two clean CSV sources (employees, departments with a foreign key) are
// imported, then merged with a scruffy semistructured feed about the
// same people; extraction shows (1) the relational part alone yields one
// type per table (§2's justification), and (2) the integrated graph
// needs the approximate machinery.
//
//   $ ./examples/relational_integration

#include <iostream>

#include "extract/extractor.h"
#include "relational/import.h"
#include "typing/atomic_sorts.h"
#include "util/string_util.h"

using namespace schemex;  // NOLINT

int main() {
  // --- 1. Clean relational sources. -------------------------------------
  relational::ImportOptions ropt;
  ropt.foreign_keys = {{"emp", "dept", "dept", "id"}};
  auto rel = relational::ImportTables(
      {{"emp",
        "name,age,dept\nada,36,d1\ngrace,45,d1\nedsger,41,d2\n"
        "tony,38,d2\nbarbara,39,d1\n"},
       {"dept", "id,title\nd1,Foundations\nd2,Systems\n"}},
      ropt);
  if (!rel.ok()) {
    std::cerr << rel.status() << "\n";
    return 1;
  }
  extract::ExtractorOptions perfect_only;
  auto r1 =
      extract::SchemaExtractor(perfect_only).Run(graph::FrozenGraph(*rel));
  std::cout << "relational part alone: " << r1->num_perfect_types
            << " perfect types (one per table), defect "
            << r1->defect.defect() << "\n"
            << r1->final_program.ToString(rel->labels()) << "\n";

  // --- 2. Merge a scruffy semistructured feed about the same people. ----
  graph::DataGraph g = *rel;
  auto person_row = [&](const char* name) {
    for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
      for (const graph::HalfEdge& e : g.OutEdges(o)) {
        if (g.IsAtomic(e.other) && g.Value(e.other) == name) return o;
      }
    }
    return graph::kInvalidObject;
  };
  // Homepage-ish records: optional photo/email, links back to the rows.
  struct Feed {
    const char* who;
    const char* email;
    const char* photo;
  };
  for (const Feed& f : {Feed{"ada", "ada@x.org", "ada.gif"},
                        Feed{"grace", "grace@x.org", nullptr},
                        Feed{"tony", nullptr, "tony.gif"}}) {
    graph::ObjectId page = g.AddComplex(std::string(f.who) + "_page");
    (void)g.AddEdge(page, person_row(f.who), "about");
    (void)g.AddEdge(page, g.AddAtomic(std::string("http://x.org/") + f.who),
                    "url");
    if (f.email != nullptr) {
      (void)g.AddEdge(page, g.AddAtomic(f.email), "email");
    }
    if (f.photo != nullptr) {
      (void)g.AddEdge(page, g.AddAtomic(f.photo), "photo");
    }
  }

  const graph::FrozenGraph integrated(g);
  auto r2 = extract::SchemaExtractor(perfect_only).Run(integrated);
  std::cout << "after integration: " << r2->num_perfect_types
            << " perfect types (irregular pages shred the schema)\n\n";

  extract::ExtractorOptions approx;
  approx.target_num_types = 3;
  auto r3 = extract::SchemaExtractor(approx).Run(integrated);
  std::cout << "approximate typing with 3 types (defect "
            << r3->defect.defect() << "):\n"
            << r3->final_program.ToString(g.labels()) << "\n";

  // --- 3. Bonus: atomic sorts (Remark 2.1) on the integrated data. ------
  const graph::FrozenGraph refined(typing::RefineAtomicSorts(integrated));
  auto r4 = extract::SchemaExtractor(approx).Run(refined);
  std::cout << "same, with atomic sorts refined (ages are ints, photos "
               "are strings, urls are urls):\n"
            << r4->final_program.ToString(refined.labels());
  return 0;
}

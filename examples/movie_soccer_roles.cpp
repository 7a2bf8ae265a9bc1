// Multiple roles (§4.2, Example 4.3): Cantona is both a soccer star and
// a movie star. Rather than keeping a combined soccer-movie-star type,
// the roles pass expresses it as a conjunction of the two simpler roles
// and assigns him to both.
//
//   $ ./examples/movie_soccer_roles

#include <iostream>

#include "graph/graph_builder.h"
#include "typing/perfect_typing.h"
#include "typing/roles.h"
#include "util/string_util.h"

using namespace schemex;  // NOLINT

int main() {
  graph::GraphBuilder b;
  int atom = 0;
  auto attach = [&](const char* who, const char* label, const char* value) {
    std::string n = util::StringPrintf("v%d", atom++);
    (void)b.Atomic(n, value);
    (void)b.Edge(who, label, n);
  };
  attach("scholes", "name", "Scholes");
  attach("scholes", "country", "England");
  attach("scholes", "team", "Man Utd");
  attach("cantona", "name", "Cantona");
  attach("cantona", "country", "France");
  attach("cantona", "team", "Man Utd");
  attach("cantona", "movie", "Le Bonheur Est Dans Le Pre");
  attach("binoche", "name", "Binoche");
  attach("binoche", "country", "France");
  attach("binoche", "movie", "Bleu");
  attach("binoche", "movie", "Damage");
  util::Status st;
  const graph::FrozenGraph g(std::move(b).Build(&st));
  if (!st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }

  auto stage1 = typing::PerfectTypingViaGfp(g);
  if (!stage1.ok()) {
    std::cerr << stage1.status() << "\n";
    return 1;
  }
  std::cout << "minimal perfect typing (" << stage1->program.NumTypes()
            << " types):\n"
            << stage1->program.ToString(g.labels()) << "\n";

  typing::RoleDecomposition roles = typing::DecomposeRoles(stage1->program);
  std::cout << "after the multiple-roles pass (" << roles.num_eliminated
            << " composite type eliminated):\n"
            << roles.program.ToString(g.labels()) << "\n";

  auto homes = roles.MapHomes(stage1->home);
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (!g.IsComplex(o)) continue;
    std::cout << "  " << g.Name(o) << " plays role(s):";
    for (typing::TypeId t : homes[o]) {
      std::cout << " " << (t + 1);
    }
    std::cout << "\n";
  }
  std::cout << "\nCantona lives in both classes — no combinatorial\n"
               "soccer-movie-star type required (the paper's §4.2 point).\n";
  return 0;
}

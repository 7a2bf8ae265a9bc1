// Quickstart: build the paper's Figure 2 database (managers and firms),
// write a typing program in datalog text, evaluate it under greatest-
// fixpoint semantics, and then let the extractor discover the same
// schema from the raw data.
//
//   $ ./examples/quickstart

#include <iostream>

#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "datalog/printer.h"
#include "extract/extractor.h"
#include "graph/graph_builder.h"
#include "graph/graph_stats.h"

using namespace schemex;  // NOLINT

int main() {
  // --- 1. Build a small semistructured database. -----------------------
  graph::GraphBuilder builder;
  (void)builder.Atomic("gates_name", "Gates");
  (void)builder.Atomic("jobs_name", "Jobs");
  (void)builder.Atomic("msft_name", "Microsoft");
  (void)builder.Atomic("aapl_name", "Apple");
  (void)builder.Edge("gates", "is-manager-of", "microsoft");
  (void)builder.Edge("jobs", "is-manager-of", "apple");
  (void)builder.Edge("microsoft", "is-managed-by", "gates");
  (void)builder.Edge("apple", "is-managed-by", "jobs");
  (void)builder.Edge("gates", "name", "gates_name");
  (void)builder.Edge("jobs", "name", "jobs_name");
  (void)builder.Edge("microsoft", "name", "msft_name");
  (void)builder.Edge("apple", "name", "aapl_name");
  util::Status st;
  graph::DataGraph built = std::move(builder).Build(&st);
  if (!st.ok()) {
    std::cerr << "builder error: " << st << "\n";
    return 1;
  }

  // --- 2. Write a typing program by hand and evaluate its GFP. ---------
  // Programs are parsed against the builder's label interner, then the
  // database is frozen for reading.
  auto program = datalog::ParseProgram(R"(
    person(X) :- link(X, Y, "is-manager-of"), firm(Y),
                 link(X, Z, "name"), atomic(Z).
    firm(X)   :- link(X, Y, "is-managed-by"), person(Y),
                 link(X, Z, "name"), atomic(Z).
  )",
                                       &built.labels());
  if (!program.ok()) {
    std::cerr << program.status() << "\n";
    return 1;
  }
  const graph::FrozenGraph g(built);
  std::cout << "database:\n" << graph::ComputeStats(g).ToString(g) << "\n";
  auto gfp = datalog::Evaluate(*program, g);
  std::cout << "hand-written typing program:\n"
            << datalog::PrintProgram(*program, g.labels()) << "\nextents:\n";
  for (size_t p = 0; p < program->num_preds(); ++p) {
    std::cout << "  " << program->pred_names[p] << " = {";
    bool first = true;
    gfp->extents[p].ForEach([&](size_t o) {
      std::cout << (first ? "" : ", ") << g.Name(static_cast<graph::ObjectId>(o));
      first = false;
    });
    std::cout << "}\n";
  }

  // --- 3. Or just let the extractor discover the schema. ---------------
  extract::ExtractorOptions opt;  // defaults: perfect typing only
  auto result = extract::SchemaExtractor(opt).Run(g);
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 1;
  }
  std::cout << "\ndiscovered minimal perfect typing ("
            << result->num_perfect_types << " types, defect "
            << result->defect.defect() << "):\n"
            << result->final_program.ToString(g.labels());
  return 0;
}

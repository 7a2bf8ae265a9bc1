// Command-line tool: load a graph (schemex text format or JSON) and
// either extract a schema or evaluate a user-supplied monadic datalog
// typing program against it.
//
//   $ ./examples/typing_tool extract <graph-file> [num-types]
//   $ ./examples/typing_tool eval <graph-file> <program-file>
//   $ ./examples/typing_tool stats <graph-file>
//   $ ./examples/typing_tool report <graph-file> [num-types]
//   $ ./examples/typing_tool save <graph-file> <dir> [num-types]
//
// Files ending in .json / .xml are imported as JSON / XML; others are parsed
// as the schemex graph text format (see graph/graph_io.h). Run without
// arguments for a self-contained demo on a built-in dataset.

#include <fstream>
#include <iostream>
#include <sstream>

#include "catalog/report.h"
#include "catalog/workspace.h"
#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "extract/extractor.h"
#include "gen/dbg.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "json/import.h"
#include "util/string_util.h"
#include "xml/import.h"

using namespace schemex;  // NOLINT

namespace {

util::StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::Status::NotFound("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

util::StatusOr<graph::DataGraph> LoadGraph(const std::string& path) {
  SCHEMEX_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  if (path.size() > 5 && path.substr(path.size() - 5) == ".json") {
    return json::ImportJson(text);
  }
  if (path.size() > 4 && path.substr(path.size() - 4) == ".xml") {
    return xml::ImportXml(text);
  }
  return graph::ReadGraph(text);
}

int Extract(const graph::FrozenGraph& g, size_t num_types) {
  extract::ExtractorOptions opt;
  opt.target_num_types = num_types;
  auto r = extract::SchemaExtractor(opt).Run(g);
  if (!r.ok()) {
    std::cerr << r.status() << "\n";
    return 1;
  }
  std::cout << util::StringPrintf(
      "perfect typing: %zu types; final: %zu types; %s\n\n",
      r->num_perfect_types, r->num_final_types,
      r->defect.ToString().c_str());
  std::cout << r->final_program.ToString(g.labels());
  return 0;
}

int Eval(graph::DataGraph& g, const std::string& program_text) {
  auto program = datalog::ParseProgram(program_text, &g.labels());
  if (!program.ok()) {
    std::cerr << program.status() << "\n";
    return 1;
  }
  const graph::FrozenGraph frozen(g);
  auto m = datalog::Evaluate(*program, frozen);
  if (!m.ok()) {
    std::cerr << m.status() << "\n";
    return 1;
  }
  for (size_t p = 0; p < program->num_preds(); ++p) {
    std::cout << program->pred_names[p] << " ("
              << m->extents[p].Count() << " objects):";
    size_t shown = 0;
    m->extents[p].ForEach([&](size_t o) {
      if (shown++ < 12) {
        const std::string& n = g.Name(static_cast<graph::ObjectId>(o));
        std::cout << " "
                  << (n.empty() ? util::StringPrintf("_o%zu", o) : n);
      }
    });
    if (shown > 12) std::cout << " ...";
    std::cout << "\n";
  }
  return 0;
}

util::StatusOr<catalog::Workspace> ExtractWorkspace(graph::DataGraph g,
                                                    size_t num_types) {
  extract::ExtractorOptions opt;
  opt.target_num_types = num_types;
  catalog::Workspace ws;
  ws.SetGraph(g);
  SCHEMEX_ASSIGN_OR_RETURN(extract::ExtractionResult r,
                           extract::SchemaExtractor(opt).Run(*ws.graph));
  ws.program = std::move(r.final_program);
  ws.assignment = std::move(r.recast.assignment);
  return ws;
}

int Report(graph::DataGraph g, size_t num_types) {
  auto ws = ExtractWorkspace(std::move(g), num_types);
  if (!ws.ok()) {
    std::cerr << ws.status() << "\n";
    return 1;
  }
  catalog::ReportOptions ropt;
  ropt.include_dot = true;
  std::cout << catalog::RenderReport(*ws, ropt);
  return 0;
}

int Save(graph::DataGraph g, const std::string& dir, size_t num_types) {
  auto ws = ExtractWorkspace(std::move(g), num_types);
  if (!ws.ok()) {
    std::cerr << ws.status() << "\n";
    return 1;
  }
  util::Status st = catalog::SaveWorkspace(*ws, dir);
  if (!st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  std::cout << "workspace saved to " << dir << "\n";
  return 0;
}

int Demo() {
  std::cout << "(no arguments: running the built-in demo)\n\n";
  auto g = gen::MakeDbgDataset();
  auto f = graph::Freeze(*g);
  std::cout << graph::ComputeStats(*f).ToString(*f) << "\n";
  return Extract(*f, 6);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Demo();
  std::string mode = argv[1];
  if (argc < 3) {
    std::cerr << "usage: typing_tool extract|eval|stats <graph> [...]\n";
    return 2;
  }
  auto g = LoadGraph(argv[2]);
  if (!g.ok()) {
    std::cerr << g.status() << "\n";
    return 1;
  }
  if (mode == "stats") {
    const graph::FrozenGraph f(*g);
    std::cout << graph::ComputeStats(f).ToString(f);
    return 0;
  }
  if (mode == "extract") {
    size_t k = 0;
    if (argc > 3 && !util::ParseUint64(argv[3], &k)) {
      std::cerr << "bad num-types\n";
      return 2;
    }
    return Extract(graph::FrozenGraph(*g), k);
  }
  if (mode == "report") {
    size_t k = 0;
    if (argc > 3 && !util::ParseUint64(argv[3], &k)) {
      std::cerr << "bad num-types\n";
      return 2;
    }
    return Report(std::move(*g), k);
  }
  if (mode == "save") {
    if (argc < 4) {
      std::cerr << "usage: typing_tool save <graph> <dir> [num-types]\n";
      return 2;
    }
    size_t k = 0;
    if (argc > 4 && !util::ParseUint64(argv[4], &k)) {
      std::cerr << "bad num-types\n";
      return 2;
    }
    return Save(std::move(*g), argv[3], k);
  }
  if (mode == "eval") {
    if (argc < 4) {
      std::cerr << "usage: typing_tool eval <graph> <program>\n";
      return 2;
    }
    auto text = ReadFile(argv[3]);
    if (!text.ok()) {
      std::cerr << text.status() << "\n";
      return 1;
    }
    return Eval(*g, *text);
  }
  std::cerr << "unknown mode '" << mode << "'\n";
  return 2;
}

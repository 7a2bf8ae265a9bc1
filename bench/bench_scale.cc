// Scalability of the pipeline (§3: "be able to approximately type a
// LARGE collection of semistructured data efficiently"): wall-clock of
// each stage as the DBG-style database grows from ~0.5k to ~200k
// objects. Stage 1 uses hash partition refinement (the production path);
// clustering cost depends on the Stage-1 type count, not the object
// count, which is the method's point.
//
// Flags:
//   --json    emit one machine-consumable JSON row per measurement
//             instead of tables. Row schemas (trajectory diffs parse
//             these; keep them stable):
//               pipeline row —
//                 {"bench":"scale","algo":"hash","objects":N,
//                  "edges":N,"stage1_types":N,"threads":1,"stage1_ms":F,
//                  "cluster_ms":F,"recast_ms":F,"apply_delta_ms":F,
//                  "speedup":1.000}
//                 apply_delta_ms is the wall-clock of applying a
//                 64-op mutation batch to a DeltaOverlay over the
//                 frozen graph (best of 3) — the generation-swap cost a
//                 service apply_delta pays before any retyping.
//               stage1-only row (large scales) —
//                 {"bench":"scale","algo":"hash","objects":N,
//                  "edges":N,"threads":1,"stage1_ms":F,"speedup":1.000}
//   --smoke   scales {1, 5} only and skip the large Stage-1-only section
//             (CI-sized)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <vector>

#include "cluster/greedy.h"
#include "gen/dbg.h"
#include "gen/spec.h"
#include "graph/delta_overlay.h"
#include "graph/frozen_graph.h"
#include "typing/defect.h"
#include "typing/perfect_typing.h"
#include "typing/recast.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

using namespace schemex;  // NOLINT

void PrintJsonRow(size_t objects, size_t edges, double stage1_ms) {
  std::printf(
      "{\"bench\":\"scale\",\"algo\":\"hash\",\"objects\":%zu,"
      "\"edges\":%zu,\"threads\":1,\"stage1_ms\":%.3f,\"speedup\":1.000}\n",
      objects, edges, stage1_ms);
}

void PrintJsonPipelineRow(size_t objects, size_t edges, size_t stage1_types,
                          double stage1_ms, double cluster_ms,
                          double recast_ms, double apply_delta_ms) {
  std::printf(
      "{\"bench\":\"scale\",\"algo\":\"hash\",\"objects\":%zu,"
      "\"edges\":%zu,\"stage1_types\":%zu,\"threads\":1,\"stage1_ms\":%.3f,"
      "\"cluster_ms\":%.3f,\"recast_ms\":%.3f,\"apply_delta_ms\":%.3f,"
      "\"speedup\":1.000}\n",
      objects, edges, stage1_types, stage1_ms, cluster_ms, recast_ms,
      apply_delta_ms);
}

/// Wall-clock of a 64-op mutation batch (adds, links, deletes) against a
/// fresh DeltaOverlay over `frozen`, best of 3 — the pure overlay cost of
/// a service apply_delta, before online typing or re-extraction.
double BenchApplyDelta(const std::shared_ptr<const graph::FrozenGraph>& frozen) {
  std::vector<graph::ObjectId> complexes;
  for (graph::ObjectId o = 0; o < frozen->NumObjects(); ++o) {
    if (frozen->IsComplex(o)) complexes.push_back(o);
  }
  if (complexes.empty()) return 0.0;
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    graph::DeltaOverlay ov(frozen);
    util::WallTimer t;
    for (size_t i = 0; i < 64; ++i) {
      switch (i % 4) {
        case 0: {
          graph::ObjectId c = ov.AddComplex();
          (void)ov.AddEdge(complexes[i % complexes.size()], c, "ref");
          break;
        }
        case 1:
          (void)ov.AddAtomic("v");
          break;
        case 2:
          (void)ov.AddEdge(complexes[i % complexes.size()],
                           complexes[(i * 7 + 1) % complexes.size()],
                           "extra");
          break;
        default: {
          graph::ObjectId from = complexes[i % complexes.size()];
          auto out = ov.OutEdges(from);
          if (!out.empty()) {
            (void)ov.RemoveEdge(from, out[0].other, out[0].label);
          }
          break;
        }
      }
    }
    best = std::min(best, t.ElapsedMillis());
  }
  return best;
}

int Run(bool json, bool smoke) {
  if (!json) {
    std::cout << "== Pipeline scalability (DBG-style data, refinement Stage "
                 "1) ==\n";
  }
  util::TablePrinter table;
  table.SetHeader({"scale", "objects", "links", "stage1 (ms)",
                   "stage1 types", "cluster->6 (ms)", "recast+defect (ms)",
                   "apply_delta (ms)", "total (ms)", "defect"});
  std::vector<int> scales = smoke ? std::vector<int>{1, 5}
                                  : std::vector<int>{1, 5, 25};
  for (int scale : scales) {
    gen::DatasetSpec spec = gen::DbgSpec();
    for (auto& t : spec.types) t.count *= static_cast<size_t>(scale);
    auto g = gen::Generate(spec, 4242);
    if (!g.ok()) return 1;
    auto f = graph::Freeze(*g);

    util::WallTimer total;
    util::WallTimer t1;
    auto stage1 = typing::PerfectTypingViaHashRefinement(*f);
    double stage1_ms = t1.ElapsedMillis();

    util::WallTimer t2;
    cluster::ClusteringOptions copt;
    copt.target_num_types = 6;
    auto clustering =
        cluster::ClusterTypes(stage1->program, stage1->weight, copt);
    double cluster_ms = t2.ElapsedMillis();

    util::WallTimer t3;
    std::vector<std::vector<typing::TypeId>> homes(g->NumObjects());
    for (size_t o = 0; o < stage1->home.size(); ++o) {
      if (stage1->home[o] == typing::kInvalidType) continue;
      typing::TypeId m =
          clustering->final_map[static_cast<size_t>(stage1->home[o])];
      if (m != cluster::kEmptyType) homes[o] = {m};
    }
    auto recast = typing::Recast(clustering->final_program, *f, homes);
    auto defect = typing::ComputeDefect(clustering->final_program, *f,
                                        recast->assignment);
    double recast_ms = t3.ElapsedMillis();
    double apply_delta_ms = BenchApplyDelta(f);

    if (json) {
      PrintJsonPipelineRow(g->NumObjects(), g->NumEdges(),
                           stage1->program.NumTypes(), stage1_ms, cluster_ms,
                           recast_ms, apply_delta_ms);
    } else {
      table.AddRow({util::StringPrintf("%dx", scale),
                    util::StringPrintf("%zu", g->NumObjects()),
                    util::StringPrintf("%zu", g->NumEdges()),
                    util::StringPrintf("%.1f", stage1_ms),
                    util::StringPrintf("%zu", stage1->program.NumTypes()),
                    util::StringPrintf("%.1f", cluster_ms),
                    util::StringPrintf("%.1f", recast_ms),
                    util::StringPrintf("%.2f", apply_delta_ms),
                    util::StringPrintf("%.1f", total.ElapsedMillis()),
                    util::StringPrintf("%zu", defect.defect())});
    }
  }
  if (!json) {
    table.Print(std::cout);
  }

  // Stage 1 alone keeps scaling far past where the O(T^2..3) clustering
  // becomes the bottleneck (T = stage-1 type count, which grows with the
  // data's irregularity).
  if (!smoke) {
    util::TablePrinter big;
    big.SetHeader(
        {"scale", "objects", "links", "stage1 (ms)", "stage1 types"});
    for (int scale : {100, 500}) {
      gen::DatasetSpec spec = gen::DbgSpec();
      for (auto& t : spec.types) t.count *= static_cast<size_t>(scale);
      auto g = gen::Generate(spec, 4242);
      if (!g.ok()) return 1;
      auto f = graph::Freeze(*g);
      util::WallTimer t1;
      auto stage1 = typing::PerfectTypingViaHashRefinement(*f);
      double stage1_ms = t1.ElapsedMillis();
      if (json) {
        PrintJsonRow(g->NumObjects(), g->NumEdges(), stage1_ms);
      } else {
        big.AddRow({util::StringPrintf("%dx", scale),
                    util::StringPrintf("%zu", g->NumObjects()),
                    util::StringPrintf("%zu", g->NumEdges()),
                    util::StringPrintf("%.1f", stage1_ms),
                    util::StringPrintf("%zu", stage1->program.NumTypes())});
      }
    }
    if (!json) {
      std::cout << "\n-- Stage 1 only, larger scales --\n";
      big.Print(std::cout);
    }
  }

  if (!json) {
    std::cout << "\nReading: Stage 1 scales near-linearly in edges; Stage 2 "
                 "depends on the Stage-1 TYPE count\n(which grows with "
                 "irregularity, not raw size); the defect grows linearly "
                 "with the data since\nthe same fraction of objects misses "
                 "the same optional links.\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json] [--smoke]\n", argv[0]);
      return 2;
    }
  }
  return Run(json, smoke);
}

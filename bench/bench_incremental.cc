// Incremental re-extraction vs cold extraction as the delta size grows.
//
// Setup per scale: generate a DBG-style database, extract once (the
// cached run a service workspace would hold), then mutate an overlay and
// measure
//   cold        — SchemaExtractor::Run over the compacted mutated graph
//   incremental — extract::ReExtract over the overlay, seeded with the
//                 cached partition/clustering and the overlay's touched
//                 set
// Before any timing, the two results are checked bit-identical (final
// program and recast assignment); a mismatch exits 1 — a fast wrong
// answer is not a speedup.
//
// Two delta classes bound the behaviour:
//   rewire  — type-preserving edge swaps inside Stage-1 blocks: objects
//             a,b in one block swap same-label targets x,y from one
//             block. Local pictures are unchanged, so incremental
//             Stage 1 converges without fallback and Stage 2 is reused
//             verbatim. This is the intended O(changed-neighbourhood)
//             fast path.
//   perturb — random structural edits (new objects, new edges, edge
//             deletions): the partition genuinely changes, Stage 2
//             re-runs, and the speedup decays toward 1x as the touched
//             fraction grows.
//
// Flags:
//   --json    one machine-consumable row per measurement. Row schema:
//             {"bench":"incremental","delta":"rewire"|"perturb",
//              "objects":N,"edges":N,"touched":N,
//              "touched_fraction":F,"cold_ms":F,"incremental_ms":F,
//              "speedup":F,"stage1_fallback":B,"stage2_reused":B}
//   --smoke   smallest scale and one delta size per class (CI-sized;
//             run under `ctest -L bench-smoke`)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "extract/extractor.h"
#include "extract/incremental_extract.h"
#include "gen/dbg.h"
#include "gen/spec.h"
#include "graph/delta_overlay.h"
#include "graph/frozen_graph.h"
#include "graph/graph_view.h"
#include "typing/perfect_typing.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

using namespace schemex;  // NOLINT
using graph::DeltaOverlay;
using graph::GraphView;
using graph::ObjectId;

/// Applies up to `want` type-preserving swaps: for a,b in one Stage-1
/// block with same-label edges a->x, b->y whose targets are
/// interchangeable under the refinement encoding — both atomic (encoded
/// uniformly as kAtomicType) or both complex in one block — rewire to
/// a->y, b->x. Local pictures are untouched, so the Stage-1 partition
/// of the mutated graph equals the cached one. Returns the number of
/// swaps applied.
size_t ApplyRewire(DeltaOverlay& ov, const typing::PerfectTypingResult& pt,
                   size_t want) {
  std::vector<std::vector<ObjectId>> blocks(pt.program.NumTypes());
  for (ObjectId o = 0; o < static_cast<ObjectId>(pt.home.size()); ++o) {
    if (ov.IsComplex(o) && pt.home[o] != typing::kInvalidType) {
      blocks[static_cast<size_t>(pt.home[o])].push_back(o);
    }
  }
  auto home = [&](ObjectId o) {
    return o < pt.home.size() ? pt.home[o] : typing::kInvalidType;
  };
  size_t done = 0;
  for (const auto& members : blocks) {
    if (done >= want) break;
    for (size_t i = 0; i + 1 < members.size() && done < want; i += 2) {
      ObjectId a = members[i], b = members[i + 1];
      bool swapped = false;
      for (const graph::HalfEdge& ea : ov.OutEdges(a)) {
        if (swapped) break;
        ObjectId x = ea.other;
        if (x == a || x == b) continue;
        for (const graph::HalfEdge& eb : ov.OutEdges(b)) {
          ObjectId y = eb.other;
          if (eb.label != ea.label) continue;
          if (y == x || y == a || y == b) continue;
          bool interchangeable =
              (ov.IsAtomic(x) && ov.IsAtomic(y)) ||
              (ov.IsComplex(x) && ov.IsComplex(y) && home(x) == home(y));
          if (!interchangeable) continue;
          if (ov.HasEdge(a, y, ea.label) || ov.HasEdge(b, x, ea.label)) {
            continue;
          }
          if (!ov.RemoveEdge(a, x, ea.label).ok()) continue;
          if (!ov.RemoveEdge(b, y, ea.label).ok()) {
            (void)ov.AddEdge(a, x, ea.label);
            continue;
          }
          (void)ov.AddEdge(a, y, ea.label);
          (void)ov.AddEdge(b, x, ea.label);
          ++done;
          swapped = true;
          break;
        }
      }
    }
  }
  return done;
}

/// Random structural edits: new objects wired into the graph, new edges
/// under existing labels, deletions. ~3 ops per unit of `want`.
void ApplyPerturb(DeltaOverlay& ov, size_t want, uint64_t seed) {
  std::mt19937 rng(seed);
  auto rnd = [&](size_t n) { return static_cast<uint32_t>(rng() % n); };
  std::vector<ObjectId> complexes;
  for (ObjectId o = 0; o < ov.NumObjects(); ++o) {
    if (ov.IsComplex(o)) complexes.push_back(o);
  }
  for (size_t i = 0; i < want * 3; ++i) {
    switch (rng() % 3) {
      case 0: {
        ObjectId c = ov.AddComplex();
        (void)ov.AddEdge(complexes[rnd(complexes.size())], c, "ref");
        (void)ov.AddEdge(c, complexes[rnd(complexes.size())], "ref");
        complexes.push_back(c);
        break;
      }
      case 1:
        (void)ov.AddEdge(complexes[rnd(complexes.size())],
                         rnd(ov.NumObjects()), "extra");
        break;
      default: {
        ObjectId from = complexes[rnd(complexes.size())];
        auto out = ov.OutEdges(from);
        if (!out.empty()) {
          auto e = out[rnd(out.size())];
          (void)ov.RemoveEdge(from, e.other, e.label);
        }
        break;
      }
    }
  }
}

struct Measurement {
  std::string delta;
  size_t objects = 0;
  size_t edges = 0;
  size_t touched = 0;
  double touched_fraction = 0.0;
  double cold_ms = 0.0;
  double incremental_ms = 0.0;
  bool stage1_fallback = false;
  bool stage2_reused = false;
};

/// Cold-vs-incremental over one mutated overlay. Returns false when the
/// two results are not bit-identical.
bool Measure(const DeltaOverlay& ov, const extract::ExtractionCache& cache,
             const extract::ExtractorOptions& opt, Measurement* m) {
  std::vector<ObjectId> touched = ov.TouchedComplexObjects();
  m->objects = ov.NumObjects();
  m->edges = ov.NumEdges();
  m->touched = touched.size();
  m->touched_fraction =
      ov.NumComplexObjects() == 0
          ? 0.0
          : static_cast<double>(touched.size()) /
                static_cast<double>(ov.NumComplexObjects());

  auto compacted = ov.Compact();
  extract::IncrementalOptions inc;

  // Identity gate first, then best-of-3 timing.
  auto cold = extract::SchemaExtractor(opt).Run(GraphView(*compacted));
  if (!cold.ok()) {
    std::fprintf(stderr, "cold extraction failed: %s\n",
                 cold.status().ToString().c_str());
    return false;
  }
  extract::ReExtractStats st;
  auto fast = extract::ReExtract(GraphView(ov), cache, touched, /*k=*/0,
                                 nullptr, inc, &st);
  if (!fast.ok()) {
    std::fprintf(stderr, "incremental extraction failed: %s\n",
                 fast.status().ToString().c_str());
    return false;
  }
  if (fast->final_program != cold->final_program ||
      fast->recast.assignment != cold->recast.assignment) {
    std::fprintf(stderr,
                 "FAIL: incremental result drifted from cold extraction "
                 "(delta=%s, touched=%zu)\n",
                 m->delta.c_str(), touched.size());
    return false;
  }
  m->stage1_fallback = !st.incremental_stage1;
  m->stage2_reused = st.stage2_reused;

  m->cold_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    util::WallTimer t;
    auto r = extract::SchemaExtractor(opt).Run(GraphView(*compacted));
    if (!r.ok()) return false;
    m->cold_ms = std::min(m->cold_ms, t.ElapsedMillis());
  }
  m->incremental_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    util::WallTimer t;
    auto r = extract::ReExtract(GraphView(ov), cache, touched, 0, nullptr,
                                inc, nullptr);
    if (!r.ok()) return false;
    m->incremental_ms = std::min(m->incremental_ms, t.ElapsedMillis());
  }
  return true;
}

int Run(bool json, bool smoke) {
  if (!json) {
    std::cout << "== Incremental re-extraction vs cold (DBG-style data, "
                 "k=6) ==\n";
  }
  util::TablePrinter table;
  table.SetHeader({"scale", "delta", "touched", "touched %", "cold (ms)",
                   "incremental (ms)", "speedup", "stage1", "stage2"});
  std::vector<int> scales = smoke ? std::vector<int>{5}
                                  : std::vector<int>{5, 25};
  // Swap budgets as fractions of the complex-object count; each rewire
  // swap touches ~4 complex objects.
  std::vector<double> fractions =
      smoke ? std::vector<double>{0.0025} : std::vector<double>{0.0025, 0.01,
                                                                0.05};
  for (int scale : scales) {
    gen::DatasetSpec spec = gen::DbgSpec();
    for (auto& t : spec.types) t.count *= static_cast<size_t>(scale);
    auto g = gen::Generate(spec, 4242);
    if (!g.ok()) return 1;
    auto frozen = graph::Freeze(*g);

    extract::ExtractorOptions opt;
    opt.target_num_types = 6;
    auto seed = extract::SchemaExtractor(opt).Run(GraphView(*frozen));
    if (!seed.ok()) return 1;
    extract::ExtractionCache cache = extract::MakeExtractionCache(*seed, opt);

    for (const char* delta : {"rewire", "perturb"}) {
      for (double frac : fractions) {
        size_t want = std::max<size_t>(
            1, static_cast<size_t>(frac * static_cast<double>(
                                              frozen->NumComplexObjects()) /
                                   4.0));
        DeltaOverlay ov(frozen);
        if (std::strcmp(delta, "rewire") == 0) {
          if (ApplyRewire(ov, cache.perfect, want) == 0) continue;
        } else {
          ApplyPerturb(ov, want, 7u * static_cast<uint64_t>(scale) + want);
        }
        Measurement m;
        m.delta = delta;
        if (!Measure(ov, cache, opt, &m)) return 1;
        double speedup =
            m.incremental_ms > 0 ? m.cold_ms / m.incremental_ms : 0.0;
        if (json) {
          std::printf(
              "{\"bench\":\"incremental\",\"delta\":\"%s\",\"objects\":%zu,"
              "\"edges\":%zu,\"touched\":%zu,\"touched_fraction\":%.5f,"
              "\"cold_ms\":%.3f,\"incremental_ms\":%.3f,\"speedup\":%.3f,"
              "\"stage1_fallback\":%s,\"stage2_reused\":%s}\n",
              m.delta.c_str(), m.objects, m.edges, m.touched,
              m.touched_fraction, m.cold_ms, m.incremental_ms, speedup,
              m.stage1_fallback ? "true" : "false",
              m.stage2_reused ? "true" : "false");
        } else {
          table.AddRow({util::StringPrintf("%dx", scale), m.delta,
                        util::StringPrintf("%zu", m.touched),
                        util::StringPrintf("%.2f%%",
                                           100.0 * m.touched_fraction),
                        util::StringPrintf("%.2f", m.cold_ms),
                        util::StringPrintf("%.2f", m.incremental_ms),
                        util::StringPrintf("%.1fx", speedup),
                        m.stage1_fallback ? "fallback" : "incremental",
                        m.stage2_reused ? "reused" : "re-ran"});
        }
      }
    }
  }
  if (!json) {
    table.Print(std::cout);
    std::cout << "\nReading: type-preserving deltas keep the cached Stage-2 "
                 "clustering valid, so the\nincremental path pays only the "
                 "changed-neighbourhood Stage 1 plus recast; random\n"
                 "perturbations force progressively more of the cold "
                 "pipeline to re-run.\n";
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

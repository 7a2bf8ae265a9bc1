// Parallel Stages 1-3: sharded wall-clock vs the sequential reference at
// 1/2/4/8 worker threads on scaled DBG-style data.
//
// Emits one JSON row per measurement (machine-consumable, same schema as
// `bench_scale --json`):
//
//   {"bench":"parallel_stage1","algo":"hash","objects":N,"edges":M,
//    "threads":T,"stage1_ms":X,"speedup":S}
//   {"bench":"parallel_stage2","algo":"greedy","types":T,"threads":N,
//    "cluster_ms":X,"speedup":S,"rescans":R,"distance_evals":D}
//   {"bench":"parallel_stage3","algo":"recast","objects":N,"edges":M,
//    "threads":T,"recast_ms":X,"speedup":S}
//
// "speedup" is sequential-reference-ms / this-row-ms, so the reference row
// itself reports 1.0. Every parallel run is verified bit-identical to the
// reference before its row prints — Stage 1: home vector AND typing
// program; Stage 2: merge steps, final program, map, weights and work
// counters (rescans, fold-ins, distance evaluations); Stage 3:
// full assignment and exact/fallback/untyped counts. A mismatch exits 1.
// Wall-clock parallel speedup obviously requires the machine to have
// cores — the row stream includes a "context" row with
// hardware_concurrency so downstream plots can annotate single-core boxes.
//
// Flags:
//   --smoke   5x DBG scale and 1 repetition (CI-sized); default is 25x
//             and best-of-3.

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "cluster/greedy.h"
#include "gen/dbg.h"
#include "gen/spec.h"
#include "typing/perfect_typing.h"
#include "typing/recast.h"
#include "util/parallel_for.h"
#include "util/timer.h"

namespace {

using namespace schemex;  // NOLINT

struct Measurement {
  double ms = 0;
  typing::PerfectTypingResult result;
};

/// Best-of-reps wall clock; the returned result comes from the last run
/// (all runs produce identical results by construction).
template <typename Fn>
Measurement Measure(int reps, Fn&& fn) {
  Measurement m;
  m.ms = 1e300;
  for (int r = 0; r < reps; ++r) {
    util::WallTimer t;
    m.result = fn();
    m.ms = std::min(m.ms, t.ElapsedMillis());
  }
  return m;
}

void PrintRow(const char* algo, size_t objects, size_t edges, size_t threads,
              double ms, double seq_ms) {
  std::printf(
      "{\"bench\":\"parallel_stage1\",\"algo\":\"%s\",\"objects\":%zu,"
      "\"edges\":%zu,\"threads\":%zu,\"stage1_ms\":%.3f,\"speedup\":%.3f}\n",
      algo, objects, edges, threads, ms, ms > 0 ? seq_ms / ms : 0.0);
}

int Run(int scale, int reps) {
  gen::DatasetSpec spec = gen::DbgSpec();
  for (auto& t : spec.types) t.count *= static_cast<size_t>(scale);
  auto g = gen::Generate(spec, 4242);
  if (!g.ok()) {
    std::fprintf(stderr, "generate: %s\n", g.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "{\"bench\":\"parallel_stage1\",\"context\":true,\"scale\":%d,"
      "\"objects\":%zu,\"edges\":%zu,\"hardware_concurrency\":%u}\n",
      scale, g->NumObjects(), g->NumEdges(),
      std::thread::hardware_concurrency());

  // Sequential map-based reference: the baseline every speedup is
  // relative to, and the oracle every parallel run is checked against.
  Measurement ref = Measure(
      reps, [&] { return *typing::PerfectTypingViaRefinement(*g); });
  PrintRow("refinement_map", g->NumObjects(), g->NumEdges(), 1, ref.ms,
           ref.ms);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    // One pool across the reps so thread spin-up is not billed to the
    // algorithm (matches how the extractor owns its pool per request).
    util::PoolRef pool(nullptr, threads);
    typing::ExecOptions exec;
    exec.num_threads = threads;
    exec.pool = pool.get();
    Measurement m = Measure(reps, [&] {
      return *typing::PerfectTypingViaHashRefinement(*g, exec);
    });
    if (m.result.home != ref.result.home ||
        m.result.program != ref.result.program) {
      std::fprintf(stderr,
                   "FAIL: hash refinement at %zu threads diverged from the "
                   "sequential reference\n",
                   threads);
      return 1;
    }
    PrintRow("hash", g->NumObjects(), g->NumEdges(), threads, m.ms, ref.ms);
  }

  // ---- Stage 2: greedy clustering, sharded best-move maintenance.
  const typing::PerfectTypingResult& stage1 = ref.result;
  cluster::ClusteringOptions copt;
  copt.target_num_types = 6;

  auto measure_cluster = [&](const typing::ExecOptions& exec) {
    double ms = 1e300;
    cluster::ClusteringResult out;
    for (int r = 0; r < reps; ++r) {
      util::WallTimer t;
      out = *cluster::ClusterTypes(stage1.program, stage1.weight, copt, exec);
      ms = std::min(ms, t.ElapsedMillis());
    }
    return std::pair<double, cluster::ClusteringResult>(ms, std::move(out));
  };

  auto [seq2_ms, ref_cluster] = measure_cluster({});
  std::printf(
      "{\"bench\":\"parallel_stage2\",\"algo\":\"greedy\",\"types\":%zu,"
      "\"threads\":1,\"cluster_ms\":%.3f,\"speedup\":1.000,"
      "\"rescans\":%zu,\"distance_evals\":%zu}\n",
      stage1.program.NumTypes(), seq2_ms, ref_cluster.rescans,
      ref_cluster.distance_evals);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    util::PoolRef pool(nullptr, threads);
    typing::ExecOptions exec;
    exec.num_threads = threads;
    exec.pool = pool.get();
    auto [ms, r] = measure_cluster(exec);
    bool same_steps = r.steps.size() == ref_cluster.steps.size();
    for (size_t i = 0; same_steps && i < r.steps.size(); ++i) {
      same_steps = r.steps[i].source == ref_cluster.steps[i].source &&
                   r.steps[i].dest == ref_cluster.steps[i].dest &&
                   r.steps[i].cost == ref_cluster.steps[i].cost;
    }
    if (!same_steps || !(r.final_program == ref_cluster.final_program) ||
        r.final_map != ref_cluster.final_map ||
        r.final_weights != ref_cluster.final_weights ||
        r.rescans != ref_cluster.rescans ||
        r.fold_ins != ref_cluster.fold_ins ||
        r.distance_evals != ref_cluster.distance_evals) {
      std::fprintf(stderr,
                   "FAIL: clustering at %zu threads diverged from the "
                   "sequential reference\n",
                   threads);
      return 1;
    }
    std::printf(
        "{\"bench\":\"parallel_stage2\",\"algo\":\"greedy\",\"types\":%zu,"
        "\"threads\":%zu,\"cluster_ms\":%.3f,\"speedup\":%.3f,"
        "\"rescans\":%zu,\"distance_evals\":%zu}\n",
        stage1.program.NumTypes(), threads, ms,
        ms > 0 ? seq2_ms / ms : 0.0, r.rescans, r.distance_evals);
  }

  // ---- Stage 3: recast (parallel GFP + sharded sweep + fallback).
  std::vector<std::vector<typing::TypeId>> homes(g->NumObjects());
  for (size_t o = 0; o < stage1.home.size(); ++o) {
    if (stage1.home[o] == typing::kInvalidType) continue;
    typing::TypeId m =
        ref_cluster.final_map[static_cast<size_t>(stage1.home[o])];
    if (m != cluster::kEmptyType) homes[o] = {m};
  }

  auto measure_recast = [&](const typing::ExecOptions& exec) {
    double ms = 1e300;
    typing::RecastResult out;
    for (int r = 0; r < reps; ++r) {
      util::WallTimer t;
      out = *typing::Recast(ref_cluster.final_program, *g, homes, {}, exec);
      ms = std::min(ms, t.ElapsedMillis());
    }
    return std::pair<double, typing::RecastResult>(ms, std::move(out));
  };

  auto [seq3_ms, ref_recast] = measure_recast({});
  std::printf(
      "{\"bench\":\"parallel_stage3\",\"algo\":\"recast\",\"objects\":%zu,"
      "\"edges\":%zu,\"threads\":1,\"recast_ms\":%.3f,\"speedup\":1.000}\n",
      g->NumObjects(), g->NumEdges(), seq3_ms);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    util::PoolRef pool(nullptr, threads);
    typing::ExecOptions exec;
    exec.num_threads = threads;
    exec.pool = pool.get();
    auto [ms, r] = measure_recast(exec);
    if (!(r.assignment == ref_recast.assignment) ||
        r.num_exact != ref_recast.num_exact ||
        r.num_fallback != ref_recast.num_fallback ||
        r.num_untyped != ref_recast.num_untyped) {
      std::fprintf(stderr,
                   "FAIL: recast at %zu threads diverged from the "
                   "sequential reference\n",
                   threads);
      return 1;
    }
    std::printf(
        "{\"bench\":\"parallel_stage3\",\"algo\":\"recast\",\"objects\":%zu,"
        "\"edges\":%zu,\"threads\":%zu,\"recast_ms\":%.3f,\"speedup\":%.3f}\n",
        g->NumObjects(), g->NumEdges(), threads, ms,
        ms > 0 ? seq3_ms / ms : 0.0);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }
  return Run(smoke ? 5 : 25, smoke ? 1 : 3);
}

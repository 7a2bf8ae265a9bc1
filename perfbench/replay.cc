#include "replay.h"

#include <algorithm>
#include <memory>

#include "catalog/workspace.h"
#include "cluster/greedy.h"
#include "extract/extractor.h"
#include "extract/incremental_extract.h"
#include "extract/knee.h"
#include "extract/pipeline_internal.h"
#include "query/path_query.h"
#include "query/schema_guide.h"
#include "snapshot/snapshot.h"
#include "typing/defect.h"
#include "typing/incremental_refine.h"
#include "typing/perfect_typing.h"
#include "typing/recast.h"
#include "util/parallel_for.h"
#include "util/string_util.h"

namespace perfbench {

namespace catalog = schemex::catalog;
namespace cluster = schemex::cluster;
namespace extract = schemex::extract;
namespace internal = schemex::extract::internal;
namespace query = schemex::query;
namespace snapshot = schemex::snapshot;
namespace typing = schemex::typing;
using json::Value;

namespace {

constexpr size_t kReplayReaderRequests = 100;
constexpr size_t kReplayBatches = 8;
/// The knee options of an extract request that leaves them at default.
constexpr size_t kKneeMaxTypes = 20;
constexpr double kKneeTolerance = 1.25;

struct Ctx {
  Ctx(const Prepared& p, const Results& e2e, Tracer& t, Results* r)
      : p(p), e2e(e2e), t(t), r(r) {}

  const Prepared& p;
  const Results& e2e;
  Tracer& t;
  Results* r;
  ReplayReport report;
  int64_t next_request = 1;
  int64_t extract_request = 0;
  std::vector<int64_t> perturb_requests;

  void Mismatch(const std::string& why) { r->Fail("replay: " + why); }
};

int64_t BeginRequest(Ctx& c) {
  c.t.SetRequest(c.next_request);
  return c.next_request++;
}

/// The service layer's share of a request: framing is the client's, the
/// parse and the serialize are timed on the lines the run really sent
/// and the responses it really got.
void ParseLine(Ctx& c, const std::string& line) {
  auto span = c.t.Begin("service.parse");
  if (!service::ParseRequestJson(line).ok()) c.Mismatch("unparsable line");
}

void SerializeRecorded(Ctx& c, const std::string& line) {
  auto it = c.e2e.first_response.find(line);
  if (it == c.e2e.first_response.end()) return;
  util::StatusOr<Value> v = json::Parse(it->second);
  if (!v.ok() || Field(*v, "result") == nullptr) return;
  service::Response resp;
  resp.id = static_cast<int64_t>(UintField(*v, "id"));
  resp.result = *Field(*v, "result");
  auto span = c.t.Begin("service.serialize");
  if (service::SerializeResponse(resp).size() != it->second.size()) {
    c.Mismatch("re-serialized response differs in length");
  }
}

/// Stage 2 (or the cached-clustering short cut), Stage 3 and the defect,
/// as extract::internal::FinishExtraction runs them, one span per layer.
struct Finished {
  extract::ExtractionResult result;
  bool stage2_reused = false;
};

util::StatusOr<Finished> FinishStages(Ctx& c,
                                      const extract::ExtractorOptions& opt,
                                      graph::GraphView g,
                                      typing::PerfectTypingResult perfect,
                                      const typing::ExecOptions& exec,
                                      const extract::ExtractionCache* cache) {
  Finished out;
  extract::ExtractionResult& res = out.result;
  res.perfect = std::move(perfect);
  res.num_perfect_types = res.perfect.program.NumTypes();
  internal::PreClusterState state = internal::PrepareForClustering(
      opt, res.perfect, &res.roles, &res.roles_applied);
  if (opt.target_num_types > 0 &&
      opt.target_num_types < state.program.NumTypes()) {
    if (cache != nullptr && cache->clustering_cached &&
        cache->chosen_k == opt.target_num_types &&
        cache->stage2_program == state.program &&
        cache->stage2_weights == state.weights) {
      res.clustering = cache->clustering;
      out.stage2_reused = true;
    } else {
      cluster::ClusteringOptions copt;
      copt.psi = opt.psi;
      copt.target_num_types = opt.target_num_types;
      copt.enable_empty_type = opt.enable_empty_type;
      auto span = c.t.Begin("cluster.greedy");
      SCHEMEX_ASSIGN_OR_RETURN(
          res.clustering,
          cluster::ClusterTypes(state.program, state.weights, copt, exec));
    }
    c.t.Count("cluster.types_in", static_cast<double>(state.program.NumTypes()));
    c.t.Count("cluster.merges", static_cast<double>(res.clustering.steps.size()));
    res.clustering_applied = true;
    res.final_program = res.clustering.final_program;
    res.final_homes =
        internal::MapHomesThrough(state.homes, res.clustering.final_map);
  } else {
    res.final_program = state.program;
    res.final_homes = state.homes;
  }
  res.num_final_types = res.final_program.NumTypes();
  {
    auto span = c.t.Begin("typing.recast");
    SCHEMEX_ASSIGN_OR_RETURN(res.recast,
                             typing::Recast(res.final_program, g,
                                            res.final_homes, opt.recast, exec));
  }
  {
    auto span = c.t.Begin("typing.defect");
    res.defect =
        typing::ComputeDefect(res.final_program, g, res.recast.assignment);
  }
  return out;
}

util::StatusOr<typing::PerfectTypingResult> Stage1(
    Ctx& c, graph::GraphView g, const typing::ExecOptions& exec) {
  auto span = c.t.Begin("typing.stage1");
  SCHEMEX_ASSIGN_OR_RETURN(typing::PerfectTypingResult pt,
                           typing::PerfectTypingViaHashRefinement(g, exec));
  c.t.Count("typing.stage1_types", static_cast<double>(pt.program.NumTypes()));
  return pt;
}

/// The extract request: the knee sweep when k = 0 (SensitivitySweep's
/// steps), then the extraction at the chosen k (SchemaExtractor::Run's).
util::StatusOr<Finished> ReplayExtract(Ctx& c, uint64_t k,
                                       const ExtractExpectation& want) {
  const int64_t id = BeginRequest(c);
  ParseLine(c, c.p.extract_line);
  graph::GraphView g(*c.p.base);
  const size_t threads =
      internal::ResolveParallelism(0, g.NumComplexObjects());
  util::PoolRef pool(nullptr, threads);
  typing::ExecOptions exec;
  exec.num_threads = threads;
  exec.pool = pool.get();

  extract::ExtractorOptions opt;
  util::StatusOr<Finished> finished = util::Status::Internal("unset");
  {
    auto root = c.t.Begin("request.extract");
    size_t chosen = static_cast<size_t>(k);
    if (k == 0) {
      auto sweep_span = c.t.Begin("extract.sweep");
      SCHEMEX_ASSIGN_OR_RETURN(typing::PerfectTypingResult perfect,
                               Stage1(c, g, exec));
      typing::RoleDecomposition roles;
      bool roles_applied = false;
      internal::PreClusterState state = internal::PrepareForClustering(
          opt, perfect, &roles, &roles_applied);
      cluster::ClusteringOptions copt;
      copt.psi = opt.psi;
      copt.target_num_types = 1;
      copt.enable_empty_type = opt.enable_empty_type;
      copt.record_snapshots = true;
      cluster::ClusteringResult clustering;
      {
        auto span = c.t.Begin("cluster.greedy");
        SCHEMEX_ASSIGN_OR_RETURN(
            clustering,
            cluster::ClusterTypes(state.program, state.weights, copt, exec));
      }
      std::vector<extract::SensitivityPoint> points;
      for (const cluster::Snapshot& snap : clustering.snapshots) {
        auto homes =
            internal::MapHomesThrough(state.homes, snap.stage1_to_snapshot);
        typing::RecastResult recast;
        {
          auto span = c.t.Begin("typing.recast");
          SCHEMEX_ASSIGN_OR_RETURN(
              recast, typing::Recast(snap.program, g, homes, opt.recast, exec));
        }
        typing::DefectReport defect;
        {
          auto span = c.t.Begin("typing.defect");
          defect = typing::ComputeDefect(snap.program, g, recast.assignment);
        }
        points.push_back({snap.num_types, snap.total_distance, defect.excess,
                          defect.deficit, defect.defect()});
      }
      const size_t useful = static_cast<size_t>(std::count_if(
          points.begin(), points.end(),
          [](const auto& pt) { return pt.k <= kKneeMaxTypes; }));
      c.report.counts["extract.sweep_points"] =
          static_cast<double>(points.size());
      c.report.counts["extract.sweep_useful_ratio"] =
          points.empty() ? 0.0
                         : static_cast<double>(useful) /
                               static_cast<double>(points.size());
      c.t.Count("extract.sweep_points", static_cast<double>(points.size()));
      auto knee_span = c.t.Begin("extract.knee");
      extract::KneeOptions knee;
      knee.max_types = kKneeMaxTypes;
      knee.tolerance = kKneeTolerance;
      chosen = extract::FindKnee(points, knee).k;
    }
    opt.target_num_types = chosen;
    SCHEMEX_ASSIGN_OR_RETURN(typing::PerfectTypingResult perfect,
                             Stage1(c, g, exec));
    finished = FinishStages(c, opt, g, std::move(perfect), exec, nullptr);
    if (!finished.ok()) return finished.status();
    const extract::ExtractionResult& res = finished->result;
    if (chosen != want.k || res.num_perfect_types != want.perfect_types ||
        res.num_final_types != want.final_types ||
        res.defect.excess != want.excess ||
        res.defect.deficit != want.deficit) {
      c.Mismatch("extract differs from the direct SchemaExtractor::Run");
    }
    c.report.counts["typing.stage1_types"] =
        static_cast<double>(res.num_perfect_types);
    c.report.counts["cluster.types_in"] =
        static_cast<double>(res.num_perfect_types);
    c.report.counts["cluster.merges"] =
        static_cast<double>(res.clustering.steps.size());
  }
  SerializeRecorded(c, c.p.extract_line);
  c.extract_request = id;
  return finished;
}

void ReplayReader(Ctx& c, const typing::TypingProgram& program,
                  const typing::TypeAssignment& assignment) {
  graph::GraphView g(*c.p.base);
  size_t next_query = 0;
  double candidates = 0, starts = 0, guided_hits = 0, unguided_hits = 0;
  for (size_t i = 0; i < kReplayReaderRequests; ++i) {
    if (i % 50 == 49) {
      BeginRequest(c);
      ParseLine(c, c.p.load_line);
      {
        auto root = c.t.Begin("request.load_workspace");
        {
          auto span = c.t.Begin("snapshot.map");
          auto mapped = snapshot::Map(c.p.load_dir + "/snapshot.bin");
          if (!mapped.ok() || (*mapped)->NumObjects() != c.p.load_objects) {
            c.Mismatch("snapshot::Map of the load target");
          }
        }
        auto span = c.t.Begin("catalog.load");
        if (!catalog::LoadWorkspace(c.p.load_dir).ok()) {
          c.Mismatch("catalog::LoadWorkspace of the load target");
        }
      }
      SerializeRecorded(c, c.p.load_line);
      continue;
    }
    const size_t q = next_query++ % c.p.query_lines.size();
    const char* path = kQueryPaths[q / 2];
    BeginRequest(c);
    ParseLine(c, c.p.query_lines[q]);
    {
      auto root = c.t.Begin("request.query");
      util::StatusOr<query::PathQuery> pq = util::Status::Internal("unset");
      {
        auto span = c.t.Begin("query.parse");
        pq = query::ParsePathQuery(path);
      }
      if (!pq.ok()) {
        c.Mismatch("query parse");
        continue;
      }
      std::vector<graph::ObjectId> guided, unguided;
      {
        auto span = c.t.Begin("query.eval_guided");
        query::SchemaGuide guide(program, assignment);
        guided = guide.Evaluate(g, *pq);
      }
      {
        auto span = c.t.Begin("query.eval_unguided");
        unguided = query::EvaluatePathQuery(g, *pq);
      }
      query::SchemaGuide guide(program, assignment);
      candidates += static_cast<double>(guide.StartCandidates(g, *pq).size());
      starts += static_cast<double>(g.NumComplexObjects());
      guided_hits += static_cast<double>(guided.size());
      unguided_hits += static_cast<double>(unguided.size());
      if (!std::includes(unguided.begin(), unguided.end(), guided.begin(),
                         guided.end())) {
        c.Mismatch(std::string("guided results not within unguided: ") + path);
      }
    }
    SerializeRecorded(c, c.p.query_lines[q]);
  }
  c.report.counts["query.guide_prune_ratio"] =
      starts > 0 ? candidates / starts : 0.0;
  c.report.counts["query.guide_recall"] =
      unguided_hits > 0 ? guided_hits / unguided_hits : 0.0;
}

void ReplayBatches(Ctx& c, extract::ExtractionCache cache) {
  auto ov = std::make_shared<graph::DeltaOverlay>(c.p.base);
  size_t reextracts = 0, fallbacks = 0, rewires = 0, reused_rewires = 0;
  size_t rewire_fallbacks = 0, perturb_fallbacks = 0, rounds = 0, peak = 0;
  const size_t n = std::min(kReplayBatches, c.p.batches.size());
  for (size_t b = 0; b < n; ++b) {
    const Batch& batch = c.p.batches[b];
    BeginRequest(c);
    ParseLine(c, batch.apply_line);
    {
      auto root = c.t.Begin("request.apply_delta");
      // apply_delta mutates a private copy of the overlay, then swaps it in.
      auto span = c.t.Begin("graph.overlay_ops");
      auto next = std::make_shared<graph::DeltaOverlay>(*ov);
      if (!ApplyOps(*next, batch.ops).ok()) {
        c.Mismatch("batch ops do not apply");
        return;
      }
      ov = std::move(next);
    }
    SerializeRecorded(c, batch.apply_line);

    const int64_t id = BeginRequest(c);
    ParseLine(c, batch.reextract_line);
    graph::GraphView g(*ov);
    extract::ExtractorOptions opt;
    opt.psi = cache.options.psi;
    opt.enable_empty_type = cache.options.enable_empty_type;
    opt.recast = cache.options.recast;
    opt.target_num_types = cache.chosen_k;
    typing::IncrementalRefineStats rs;
    util::StatusOr<Finished> finished = util::Status::Internal("unset");
    {
      auto root = c.t.Begin("request.re_extract");
      const size_t threads =
          internal::ResolveParallelism(2, g.NumComplexObjects());
      util::PoolRef pool(nullptr, threads);
      typing::ExecOptions exec;
      exec.num_threads = threads;
      exec.pool = pool.get();
      typing::IncrementalRefineOptions ro;
      ro.exec = exec;
      util::StatusOr<typing::PerfectTypingResult> perfect =
          util::Status::Internal("unset");
      {
        auto span = c.t.Begin("typing.stage1");
        perfect =
            typing::IncrementalRefine(g, cache.perfect, batch.touched, ro, &rs);
      }
      if (!perfect.ok()) {
        c.Mismatch("IncrementalRefine: " + perfect.status().ToString());
        return;
      }
      finished =
          FinishStages(c, opt, g, std::move(perfect).value(), exec, &cache);
    }
    if (!finished.ok()) {
      c.Mismatch("re_extract stages: " + finished.status().ToString());
      return;
    }
    SerializeRecorded(c, batch.reextract_line);
    c.t.Count("extract.dirty_peak", static_cast<double>(rs.peak_dirty));
    c.t.Count("extract.rounds", static_cast<double>(rs.rounds));

    const bool incremental = !rs.fell_back;
    if (finished->result.num_perfect_types != batch.perfect_types_after) {
      c.Mismatch(util::StringPrintf("batch %zu Stage-1 type count", b));
    }
    if (b < c.e2e.incremental.size()) {
      const IncrementalReport& served = c.e2e.incremental[b];
      if (served.stage1_incremental != incremental ||
          served.stage2_reused != finished->stage2_reused ||
          served.dirty_seed != rs.seed_dirty ||
          served.dirty_peak != rs.peak_dirty || served.rounds != rs.rounds) {
        c.Mismatch(util::StringPrintf(
            "batch %zu incremental counters differ from the server's", b));
      }
    }
    ++reextracts;
    fallbacks += incremental ? 0 : 1;
    rounds += rs.rounds;
    peak = std::max(peak, rs.peak_dirty);
    if (batch.perturb) {
      perturb_fallbacks += incremental ? 0 : 1;
      c.perturb_requests.push_back(id);
    } else {
      ++rewires;
      c.report.rewire_requests.push_back(id);
      rewire_fallbacks += incremental ? 0 : 1;
      reused_rewires += finished->stage2_reused ? 1 : 0;
    }
    c.report.batch_counters.push_back(util::StringPrintf(
        "batch=%zu kind=%s touched=%zu dirty_seed=%zu dirty_peak=%zu "
        "rounds=%zu stage1=%s stage2=%s perfect_types=%zu",
        b, batch.perturb ? "perturb" : "rewire", batch.touched.size(),
        rs.seed_dirty, rs.peak_dirty, rs.rounds,
        incremental ? "incremental" : "fallback",
        finished->stage2_reused ? "reused" : "ran",
        finished->result.num_perfect_types));
    cache = extract::MakeExtractionCache(finished->result, opt);
  }
  auto& m = c.report.counts;
  m["extract.dirty_peak"] = static_cast<double>(peak);
  m["extract.rounds"] = static_cast<double>(rounds);
  m["extract.stage1_fallback_frac"] =
      reextracts ? static_cast<double>(fallbacks) / reextracts : 0.0;
  m["extract.stage2_reused_frac"] =
      rewires ? static_cast<double>(reused_rewires) / rewires : 0.0;
  m["extract.rewire_fallbacks"] = static_cast<double>(rewire_fallbacks);
  m["extract.perturb_fallbacks"] = static_cast<double>(perturb_fallbacks);
  m["graph.overlay_bytes"] = static_cast<double>(ov->MemoryUsage());
}

double MedianOver(const Tracer& t, const std::string& name,
                  const std::vector<int64_t>& requests) {
  Samples s;
  for (int64_t id : requests) s.Add(t.RequestMs(name, id));
  return s.Median();
}

}  // namespace

ReplayReport Replay(const WorkloadSpec& spec, const Prepared& p,
                    const ExtractExpectation& want, const Results& e2e,
                    Tracer& tracer, Results* r) {
  Ctx c(p, e2e, tracer, r);
  c.report.counts["extract.sweep_points"] = 0;
  c.report.counts["extract.sweep_useful_ratio"] = 0;
  const Clock::time_point t0 = Clock::now();
  util::StatusOr<Finished> ex = ReplayExtract(c, spec.extract_k, want);
  if (!ex.ok()) {
    c.Mismatch("extract: " + ex.status().ToString());
  } else {
    ReplayReader(c, ex->result.final_program, ex->result.recast.assignment);
    extract::ExtractorOptions opt;
    opt.target_num_types = static_cast<size_t>(want.k);
    ReplayBatches(c, extract::MakeExtractionCache(ex->result, opt));
  }
  c.report.wall_ms = MsSince(t0);
  // The focus of serve_delta_x25 is its perturb re_extracts, not the
  // set-up extract.
  if (spec.serve) {
    c.report.focus_requests = c.perturb_requests;
    c.report.focus_root = "request.re_extract";
  } else {
    c.report.focus_requests = {c.extract_request};
    c.report.focus_root = "request.extract";
  }
  return std::move(c.report);
}

std::map<std::string, double> LayerMetrics(const Tracer& t,
                                           const ReplayReport& report) {
  std::map<std::string, double> m = report.counts;
  const auto& focus = report.focus_requests;
  m["typing.stage1_ms"] = MedianOver(t, "typing.stage1", focus);
  m["cluster.greedy_ms"] = MedianOver(t, "cluster.greedy", focus);
  m["typing.recast_ms"] = MedianOver(t, "typing.recast", focus);
  m["typing.defect_ms"] = MedianOver(t, "typing.defect", focus);
  Samples stage2_share, stage3_share;
  for (int64_t id : focus) {
    const double root = t.RequestMs(report.focus_root, id);
    if (root <= 0) continue;
    stage2_share.Add(t.RequestMs("cluster.greedy", id) / root);
    stage3_share.Add((t.RequestMs("typing.recast", id) +
                      t.RequestMs("typing.defect", id)) /
                     root);
  }
  m["share.stage2_of_focus"] = stage2_share.Median();
  m["share.stage3_of_focus"] = stage3_share.Median();
  m["extract.incremental_ms"] =
      MedianOver(t, "typing.stage1", report.rewire_requests);
  m["service.parse_us"] = t.SpanUs("service.parse").Median();
  m["service.serialize_us"] = t.SpanUs("service.serialize").Median();
  m["query.parse_us"] = t.SpanUs("query.parse").Median();
  m["query.eval_guided_us"] = t.SpanUs("query.eval_guided").Median();
  m["query.eval_unguided_us"] = t.SpanUs("query.eval_unguided").Median();
  m["graph.overlay_ops_ms"] = t.SpanUs("graph.overlay_ops").Median() / 1e3;
  m["snapshot.map_ms"] = t.SpanUs("snapshot.map").Median() / 1e3;
  m["catalog.load_ms"] = t.SpanUs("catalog.load").Median() / 1e3;
  return m;
}

std::string LayerUnit(const std::string& name) {
  auto ends = [&](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  if (ends("_us")) return "us";
  if (ends("_ms")) return "ms";
  if (ends("_bytes")) return "bytes";
  if (ends("_frac") || ends("_ratio") || ends("_recall") ||
      name.rfind("share.", 0) == 0) {
    return "ratio";
  }
  return "count";
}

}  // namespace perfbench

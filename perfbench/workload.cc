#include "workload.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>

#include "catalog/workspace.h"
#include "extract/extractor.h"
#include "extract/knee.h"
#include "gen/dbg.h"
#include "gen/spec.h"
#include "query/path_query.h"
#include "query/schema_guide.h"
#include "typing/perfect_typing.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace catalog = schemex::catalog;
namespace extract = schemex::extract;
namespace query = schemex::query;
namespace typing = schemex::typing;
using graph::ObjectId;
using json::Value;

namespace {

constexpr double kCallTimeoutS = 170.0;
/// Type-preserving swaps per rewire batch.
constexpr size_t kRewireSwaps = 2;
/// Rounds of structural edits per perturb batch (up to five ops each).
constexpr size_t kPerturbRounds = 2;
/// One batch in this many is a perturb batch: alternately random edits
/// and the undoing of the previous perturb batch's edits.
constexpr size_t kPerturbEvery = 8;
/// A run gives up on a closed loop once this many requests failed.
constexpr size_t kMaxFailures = 50;

util::StatusOr<std::shared_ptr<const graph::FrozenGraph>> GenerateDbg(
    int scale, uint64_t seed) {
  schemex::gen::DatasetSpec spec = schemex::gen::DbgSpec();
  for (auto& t : spec.types) t.count *= static_cast<size_t>(scale);
  SCHEMEX_ASSIGN_OR_RETURN(graph::DataGraph g,
                           schemex::gen::Generate(spec, seed));
  return graph::Freeze(g);
}

util::Status SaveGraphOnly(std::shared_ptr<const graph::FrozenGraph> g,
                           const std::string& dir) {
  catalog::Workspace ws;
  ws.graph = std::move(g);
  return catalog::SaveWorkspace(ws, dir);
}

std::string Line(int64_t id, const char* verb,
                 std::map<std::string, Value> params) {
  std::map<std::string, Value> f;
  f["id"] = service::JsonInt(id);
  f["verb"] = Value::String(verb);
  f["params"] = Value::Object(std::move(params));
  return json::Serialize(Value::Object(std::move(f)));
}

std::string QueryLine(int64_t id, const std::string& path, uint64_t limit,
                      bool use_guide) {
  std::map<std::string, Value> p;
  p["workspace"] = Value::String("main");
  p["query"] = Value::String(path);
  p["limit"] = service::JsonUint(limit);
  if (!use_guide) p["use_guide"] = Value::Bool(false);
  return Line(id, "query", std::move(p));
}

Value OpJson(const service::DeltaOp& op) {
  std::map<std::string, Value> f;
  f["op"] = Value::String(op.op);
  if (op.op == "add_object") {
    f["kind"] = Value::String(op.kind);
  } else {
    f["from"] = service::JsonUint(op.from);
    f["to"] = service::JsonUint(op.to);
    f["label"] = Value::String(op.label);
  }
  return Value::Object(std::move(f));
}

/// Sends one pre-built line and waits for its response. Returns false (and
/// records the failure) on a transport error or an error response.
bool Call(service::TcpClient& client, const std::string& line, Results* r,
          double* ms, Value* result) {
  ++r->attempted;
  const Clock::time_point t0 = Clock::now();
  util::Status sent = client.SendLine(line);
  util::StatusOr<std::string> raw =
      sent.ok() ? client.ReadLine(kCallTimeoutS)
                : util::StatusOr<std::string>(sent);
  *ms = MsSince(t0);
  if (!raw.ok()) {
    r->Fail("transport: " + raw.status().ToString());
    return false;
  }
  util::StatusOr<Value> v = json::Parse(*raw);
  const Value* ok = v.ok() ? Field(*v, "ok") : nullptr;
  if (ok == nullptr || ok->kind() != Value::Kind::kBool || !ok->AsBool()) {
    r->Fail("error response: " + raw->substr(0, 300));
    return false;
  }
  r->first_response.emplace(line, *raw);
  const Value* res = Field(*v, "result");
  *result = res != nullptr ? *res : Value();
  return true;
}

/// Applies `op` to the mirror and, when it succeeds, records it in `b`
/// along with the complex objects it touches (as apply_delta counts them).
bool AddOp(graph::DeltaOverlay& ov, service::DeltaOp op, Batch* b) {
  if (!ApplyOps(ov, {op}).ok()) return false;
  auto touch = [&](uint64_t id) {
    if (id < ov.NumObjects() && ov.IsComplex(static_cast<ObjectId>(id))) {
      b->touched.push_back(static_cast<ObjectId>(id));
    }
  };
  if (op.op == "add_object") {
    ++b->objects_added;
    b->touched.push_back(static_cast<ObjectId>(ov.NumObjects() - 1));
  } else {
    ++(op.op == "add_link" ? b->links_added : b->links_deleted);
    touch(op.from);
    touch(op.to);
  }
  b->ops.push_back(std::move(op));
  return true;
}

service::DeltaOp LinkOp(const char* kind, ObjectId from, ObjectId to,
                        std::string label) {
  service::DeltaOp op;
  op.op = kind;
  op.from = from;
  op.to = to;
  op.label = std::move(label);
  return op;
}

/// One type-preserving swap between a and b (same Stage-1 block): same-label
/// edges a->x, b->y with interchangeable targets become a->y, b->x, so
/// every local picture, and hence the partition, is unchanged.
bool TrySwap(graph::DeltaOverlay& ov, const typing::PerfectTypingResult& pt,
             ObjectId a, ObjectId b, Batch* batch) {
  auto home = [&](ObjectId o) {
    return o < pt.home.size() ? pt.home[o] : typing::kInvalidType;
  };
  for (const graph::HalfEdge& ea : ov.OutEdges(a)) {
    const ObjectId x = ea.other;
    if (x == a || x == b) continue;
    for (const graph::HalfEdge& eb : ov.OutEdges(b)) {
      const ObjectId y = eb.other;
      if (eb.label != ea.label || y == x || y == a || y == b) continue;
      const bool interchangeable =
          (ov.IsAtomic(x) && ov.IsAtomic(y)) ||
          (ov.IsComplex(x) && ov.IsComplex(y) &&
           home(x) != typing::kInvalidType && home(x) == home(y));
      if (!interchangeable || ov.HasEdge(a, y, ea.label) ||
          ov.HasEdge(b, x, ea.label)) {
        continue;
      }
      // The edge spans die with the first edit; everything needed is
      // copied out above.
      const std::string label(ov.labels().Name(ea.label));
      return AddOp(ov, LinkOp("del_link", a, x, label), batch) &&
             AddOp(ov, LinkOp("del_link", b, y, label), batch) &&
             AddOp(ov, LinkOp("add_link", a, y, label), batch) &&
             AddOp(ov, LinkOp("add_link", b, x, label), batch);
    }
  }
  return false;
}

void MakeRewire(graph::DeltaOverlay& ov, const typing::PerfectTypingResult& pt,
                std::mt19937_64& rng, Batch* batch) {
  std::vector<std::vector<ObjectId>> blocks(pt.program.NumTypes());
  for (ObjectId o = 0; o < static_cast<ObjectId>(pt.home.size()); ++o) {
    if (ov.IsComplex(o) && pt.home[o] != typing::kInvalidType) {
      blocks[static_cast<size_t>(pt.home[o])].push_back(o);
    }
  }
  std::vector<const std::vector<ObjectId>*> pairs;
  for (const auto& members : blocks) {
    if (members.size() >= 2) pairs.push_back(&members);
  }
  if (pairs.empty()) return;
  size_t done = 0;
  for (size_t attempt = 0; attempt < 64 * kRewireSwaps && done < kRewireSwaps;
       ++attempt) {
    const std::vector<ObjectId>& m = *pairs[rng() % pairs.size()];
    const ObjectId a = m[rng() % m.size()];
    const ObjectId b = m[rng() % m.size()];
    if (a != b && TrySwap(ov, pt, a, b, batch)) ++done;
  }
}

/// Random structural edits in the style of bench_incremental's perturb
/// class: a new object wired in by two "ref" links, an "extra" link, and
/// a deletion, per round. Only ops that succeed on the mirror are kept,
/// so the batch applies cleanly over the wire.
void MakePerturb(graph::DeltaOverlay& ov, std::mt19937_64& rng,
                 Batch* batch) {
  std::vector<ObjectId> complexes;
  for (ObjectId o = 0; o < ov.NumObjects(); ++o) {
    if (ov.IsComplex(o)) complexes.push_back(o);
  }
  auto any_complex = [&] { return complexes[rng() % complexes.size()]; };
  for (size_t round = 0; round < kPerturbRounds; ++round) {
    service::DeltaOp add;
    add.op = "add_object";
    add.kind = "complex";
    const ObjectId c = static_cast<ObjectId>(ov.NumObjects());
    if (!AddOp(ov, add, batch)) continue;
    AddOp(ov, LinkOp("add_link", any_complex(), c, "ref"), batch);
    AddOp(ov, LinkOp("add_link", c, any_complex(), "ref"), batch);
    complexes.push_back(c);
    AddOp(ov,
          LinkOp("add_link", any_complex(),
                 static_cast<ObjectId>(rng() % ov.NumObjects()), "extra"),
          batch);
    const ObjectId from = any_complex();
    const auto out = ov.OutEdges(from);
    if (!out.empty()) {
      const graph::HalfEdge e = out[rng() % out.size()];
      AddOp(ov,
            LinkOp("del_link", from, e.other,
                   std::string(ov.labels().Name(e.label))),
            batch);
    }
  }
}

/// Undoes `perturb`'s link edits, newest first. Its added objects stay,
/// isolated, so the graph keeps its shape (and Stage 2 its cost) however
/// many batches a run reaches.
void MakeRestore(graph::DeltaOverlay& ov, const Batch& perturb,
                 Batch* batch) {
  for (auto it = perturb.ops.rbegin(); it != perturb.ops.rend(); ++it) {
    if (it->op == "add_object") continue;
    service::DeltaOp undo = *it;
    undo.op = it->op == "add_link" ? "del_link" : "add_link";
    AddOp(ov, std::move(undo), batch);
  }
}

util::StatusOr<std::vector<Batch>> MakeBatches(
    std::shared_ptr<const graph::FrozenGraph> base, uint64_t seed,
    size_t count) {
  graph::DeltaOverlay ov(base);
  SCHEMEX_ASSIGN_OR_RETURN(
      typing::PerfectTypingResult pt,
      typing::PerfectTypingViaHashRefinement(graph::GraphView(ov)));
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  std::vector<Batch> batches(count);
  for (size_t i = 0; i < count; ++i) {
    Batch& b = batches[i];
    b.perturb = i % kPerturbEvery == kPerturbEvery - 1;
    if (b.perturb) {
      if ((i / kPerturbEvery) % 2 == 0) {
        MakePerturb(ov, rng, &b);
      } else {
        MakeRestore(ov, batches[i - kPerturbEvery], &b);
      }
      SCHEMEX_ASSIGN_OR_RETURN(
          pt, typing::PerfectTypingViaHashRefinement(graph::GraphView(ov)));
    } else {
      MakeRewire(ov, pt, rng, &b);
    }
    b.perfect_types_after = pt.program.NumTypes();
    std::sort(b.touched.begin(), b.touched.end());
    b.touched.erase(std::unique(b.touched.begin(), b.touched.end()),
                    b.touched.end());

    std::vector<Value> ops;
    for (const service::DeltaOp& op : b.ops) ops.push_back(OpJson(op));
    const int64_t id = 1000 + 2 * static_cast<int64_t>(i);
    std::map<std::string, Value> ap;
    ap["workspace"] = Value::String("main");
    ap["ops"] = Value::Array(std::move(ops));
    b.apply_line = Line(id, "apply_delta", std::move(ap));
    std::map<std::string, Value> rp;
    rp["workspace"] = Value::String("main");
    rp["k"] = service::JsonUint(0);
    rp["parallelism"] = service::JsonUint(2);
    b.reextract_line = Line(id + 1, "re_extract", std::move(rp));
  }
  return batches;
}

bool LoadOverWire(service::TcpClient& client, const std::string& line,
                  size_t objects, Results* r, double* ms) {
  Value res;
  if (!Call(client, line, r, ms, &res)) return false;
  const Value* source = Field(res, "source");
  if (source == nullptr || source->AsString() != "snapshot" ||
      UintField(res, "objects") != objects) {
    r->Fail("load_workspace did not map the snapshot: " + json::Serialize(res));
    return false;
  }
  return true;
}

std::string ReadFile(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

}  // namespace

const Value* Field(const Value& v, const std::string& key) {
  if (v.kind() != Value::Kind::kObject) return nullptr;
  auto it = v.AsObject().find(key);
  return it == v.AsObject().end() ? nullptr : &it->second;
}

uint64_t UintField(const Value& v, const std::string& key) {
  const Value* f = Field(v, key);
  return f != nullptr && f->kind() == Value::Kind::kNumber
             ? static_cast<uint64_t>(f->AsNumber())
             : ~uint64_t{0};
}

util::Status ApplyOps(graph::DeltaOverlay& ov,
                      const std::vector<service::DeltaOp>& ops) {
  for (const service::DeltaOp& op : ops) {
    if (op.op == "add_object") {
      if (op.kind == "atomic") {
        ov.AddAtomic(op.value, op.name);
      } else {
        ov.AddComplex(op.name);
      }
    } else if (op.op == "add_link") {
      SCHEMEX_RETURN_IF_ERROR(ov.AddEdge(static_cast<ObjectId>(op.from),
                                         static_cast<ObjectId>(op.to),
                                         std::string_view(op.label)));
    } else {
      const graph::LabelId label = ov.labels().Find(op.label);
      if (label == graph::kInvalidLabel) {
        return util::Status::NotFound("unknown label " + op.label);
      }
      SCHEMEX_RETURN_IF_ERROR(ov.RemoveEdge(static_cast<ObjectId>(op.from),
                                            static_cast<ObjectId>(op.to),
                                            label));
    }
  }
  return util::Status::OK();
}

util::StatusOr<std::shared_ptr<graph::DeltaOverlay>> ApplyBatches(
    std::shared_ptr<const graph::FrozenGraph> base,
    const std::vector<Batch>& batches, size_t n) {
  auto ov = std::make_shared<graph::DeltaOverlay>(std::move(base));
  for (size_t i = 0; i < n && i < batches.size(); ++i) {
    SCHEMEX_RETURN_IF_ERROR(ApplyOps(*ov, batches[i].ops));
  }
  return ov;
}

util::StatusOr<Prepared> SetUp(const WorkloadSpec& spec, uint64_t seed,
                               size_t num_batches, const std::string& work_dir,
                               service::TcpClient& client, Results* r) {
  Prepared p;
  fs::create_directories(work_dir);
  SCHEMEX_ASSIGN_OR_RETURN(p.base, GenerateDbg(spec.scale, seed));
  p.main_dir = (fs::path(work_dir) / "main").string();
  SCHEMEX_RETURN_IF_ERROR(SaveGraphOnly(p.base, p.main_dir));
  p.snapshot_bytes = fs::file_size(fs::path(p.main_dir) / "snapshot.bin");
  if (spec.load_scale > 0) {
    SCHEMEX_ASSIGN_OR_RETURN(auto ro, GenerateDbg(spec.load_scale, seed + 1));
    p.load_dir = (fs::path(work_dir) / "ro").string();
    SCHEMEX_RETURN_IF_ERROR(SaveGraphOnly(ro, p.load_dir));
    p.load_objects = ro->NumObjects();
  } else {
    p.load_dir = p.main_dir;
    p.load_objects = p.base->NumObjects();
  }

  {
    std::map<std::string, Value> lp;
    lp["name"] = Value::String("main");
    lp["dir"] = Value::String(p.main_dir);
    double ms = 0;
    if (!LoadOverWire(client, Line(2, "load_workspace", std::move(lp)),
                      p.base->NumObjects(), r, &ms)) {
      return util::Status::Internal("set-up load_workspace failed");
    }
  }
  {
    std::map<std::string, Value> lp;
    lp["name"] = Value::String("ro");
    lp["dir"] = Value::String(p.load_dir);
    p.load_line = Line(3, "load_workspace", std::move(lp));
    double ms = 0;
    if (!LoadOverWire(client, p.load_line, p.load_objects, r, &ms)) {
      return util::Status::Internal("set-up load_workspace failed");
    }
  }
  int64_t id = 10;
  for (const char* path : kQueryPaths) {
    for (uint64_t limit : {0, 20}) {
      p.query_lines.push_back(QueryLine(id++, path, limit, true));
      p.query_limits.push_back(limit);
    }
  }
  std::map<std::string, Value> ep;
  ep["workspace"] = Value::String("main");
  ep["k"] = service::JsonUint(spec.extract_k);
  p.extract_line = Line(1, "extract", std::move(ep));
  SCHEMEX_ASSIGN_OR_RETURN(p.batches, MakeBatches(p.base, seed, num_batches));
  return p;
}

util::StatusOr<ExtractExpectation> DirectExtract(const graph::FrozenGraph& g,
                                                 uint64_t k) {
  graph::GraphView view(g);
  extract::ExtractorOptions opt;
  ExtractExpectation want;
  want.k = k;
  if (k == 0) {
    SCHEMEX_ASSIGN_OR_RETURN(std::vector<extract::SensitivityPoint> sweep,
                             extract::SensitivitySweep(view, opt));
    extract::KneeOptions knee;
    knee.max_types = 20;
    knee.tolerance = 1.25;
    want.k = extract::FindKnee(sweep, knee).k;
  }
  opt.target_num_types = static_cast<size_t>(want.k);
  SCHEMEX_ASSIGN_OR_RETURN(extract::ExtractionResult res,
                           extract::SchemaExtractor(opt).Run(view));
  want.perfect_types = res.num_perfect_types;
  want.final_types = res.num_final_types;
  want.excess = res.defect.excess;
  want.deficit = res.defect.deficit;
  return want;
}

void RunExtractLoop(service::TcpClient& client, const std::string& line,
                    const ExtractExpectation& want, Clock::time_point deadline,
                    size_t min_requests, Results* r) {
  for (size_t i = 0; i < min_requests || Clock::now() < deadline; ++i) {
    if (r->failed >= kMaxFailures) return;
    double ms = 0;
    Value res;
    if (!Call(client, line, r, &ms, &res)) continue;
    r->extract_ms.Add(ms);
    const Value* defect = Field(res, "defect");
    if (UintField(res, "k") != want.k ||
        UintField(res, "num_perfect_types") != want.perfect_types ||
        UintField(res, "num_final_types") != want.final_types ||
        defect == nullptr || UintField(*defect, "excess") != want.excess ||
        UintField(*defect, "deficit") != want.deficit) {
      r->Fail("extract response differs from a direct SchemaExtractor::Run: " +
              json::Serialize(res));
      continue;
    }
    const Value* timings = Field(res, "timings");
    const Value* total = timings ? Field(*timings, "total_ms") : nullptr;
    if (total != nullptr) r->untimed_ms.Add(ms - total->AsNumber());
  }
}

void RunReader(service::TcpClient& client, const Prepared& p,
               Clock::time_point deadline, size_t max_requests, Results* r) {
  const Clock::time_point t0 = Clock::now();
  size_t next_query = 0;
  for (size_t i = 0; i < max_requests && Clock::now() < deadline; ++i) {
    if (r->failed >= kMaxFailures) break;
    double ms = 0;
    if (i % 50 == 49) {
      if (LoadOverWire(client, p.load_line, p.load_objects, r, &ms)) {
        r->load_ms.Add(ms);
      }
      continue;
    }
    const size_t q = next_query++ % p.query_lines.size();
    Value res;
    if (!Call(client, p.query_lines[q], r, &ms, &res)) continue;
    const Value* objects = Field(res, "objects");
    const uint64_t count = UintField(res, "count");
    if (objects == nullptr || count == ~uint64_t{0} ||
        objects->AsArray().size() != std::min(count, p.query_limits[q])) {
      r->Fail("malformed query response: " + json::Serialize(res));
      continue;
    }
    r->query_ms.Add(ms);
    r->query_done_s.push_back(MsSince(t0) / 1e3);
  }
  r->query_seconds += MsSince(t0) / 1e3;
}

void RunWriter(service::TcpClient& client, const Prepared& p, uint64_t k,
               Clock::time_point deadline, Results* r) {
  for (size_t b = 0; b < p.batches.size() && Clock::now() < deadline; ++b) {
    const Batch& batch = p.batches[b];
    double ms = 0;
    Value res;
    // A failed write leaves the server and the mirror apart; stop writing.
    if (!Call(client, batch.apply_line, r, &ms, &res)) return;
    r->apply_ms.Add(ms);
    if (UintField(res, "objects_added") != batch.objects_added ||
        UintField(res, "links_added") != batch.links_added ||
        UintField(res, "links_deleted") != batch.links_deleted) {
      r->Fail("apply_delta counts differ from the batch: " +
              json::Serialize(res));
    }
    if (!Call(client, batch.reextract_line, r, &ms, &res)) return;
    (batch.perturb ? r->perturb_ms : r->rewire_ms).Add(ms);
    ++r->batches_done;
    if (UintField(res, "k") != k ||
        UintField(res, "num_perfect_types") != batch.perfect_types_after) {
      r->Fail("re_extract response differs from the mirror's Stage 1: " +
              json::Serialize(res));
    }
    IncrementalReport rep;
    rep.perturb = batch.perturb;
    if (const Value* inc = Field(res, "incremental")) {
      const Value* s1 = Field(*inc, "stage1_incremental");
      const Value* s2 = Field(*inc, "stage2_reused");
      rep.stage1_incremental = s1 != nullptr && s1->AsBool();
      rep.stage2_reused = s2 != nullptr && s2->AsBool();
      rep.dirty_seed = UintField(*inc, "dirty_seed");
      rep.dirty_peak = UintField(*inc, "dirty_peak");
      rep.rounds = UintField(*inc, "rounds");
    }
    r->incremental.push_back(rep);
  }
}

void CheckFinalState(service::TcpClient& client, const Prepared& p,
                     size_t batches_done, uint64_t k,
                     const std::string& work_dir, Results* r) {
  // The service saves the workspace its loop left behind ...
  const fs::path final_dir = fs::path(work_dir) / "final";
  const fs::path cold_dir = fs::path(work_dir) / "cold";
  std::map<std::string, Value> sp;
  sp["workspace"] = Value::String("main");
  sp["save_dir"] = Value::String(final_dir.string());
  double ms = 0;
  Value res;
  if (!Call(client, Line(900001, "re_extract", std::move(sp)), r, &ms, &res)) {
    return;
  }

  // ... which must equal a cold extraction of the mirror graph.
  auto mirror = ApplyBatches(p.base, p.batches, batches_done);
  if (!mirror.ok()) {
    r->Fail("mirror: " + mirror.status().ToString());
    return;
  }
  std::shared_ptr<const graph::FrozenGraph> mutated = (*mirror)->Compact();
  graph::GraphView view(*mutated);
  extract::ExtractorOptions opt;
  opt.target_num_types = static_cast<size_t>(k);
  auto cold = extract::SchemaExtractor(opt).Run(view);
  if (!cold.ok()) {
    r->Fail("cold extraction: " + cold.status().ToString());
    return;
  }
  catalog::Workspace ws;
  ws.graph = mutated;
  ws.program = cold->final_program;
  ws.assignment = cold->recast.assignment;
  util::Status saved = catalog::SaveWorkspace(ws, cold_dir.string());
  if (!saved.ok()) {
    r->Fail("save cold workspace: " + saved.ToString());
    return;
  }
  for (const char* file :
       {"schema.dl", "assignment.tsv", "graph.sxg", "snapshot.bin"}) {
    if (ReadFile(final_dir / file) != ReadFile(cold_dir / file)) {
      r->Fail(std::string("served workspace differs from a cold extraction "
                          "of the mutated graph: ") + file);
    }
  }

  // Query counts over the wire must equal direct evaluations.
  query::SchemaGuide guide(cold->final_program, cold->recast.assignment);
  int64_t id = 900100;
  for (const char* path : kQueryPaths) {
    auto q = query::ParsePathQuery(path);
    if (!q.ok()) {
      r->Fail("query parse: " + q.status().ToString());
      continue;
    }
    const uint64_t unguided = query::EvaluatePathQuery(view, *q).size();
    const uint64_t guided = guide.Evaluate(view, *q).size();
    for (bool use_guide : {false, true}) {
      if (!Call(client, QueryLine(id++, path, 0, use_guide), r, &ms, &res)) {
        continue;
      }
      const uint64_t want = use_guide ? guided : unguided;
      if (UintField(res, "count") != want) {
        r->Fail(std::string("query ") + path +
                (use_guide ? " (guided)" : " (unguided)") + " returned " +
                std::to_string(UintField(res, "count")) + ", direct " +
                std::to_string(want));
      }
    }
  }
}

}  // namespace perfbench

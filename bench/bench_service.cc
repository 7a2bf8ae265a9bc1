// Service throughput bench: N client threads x M mixed query/extract
// requests against cached workspaces, at several worker-pool sizes.
//
//   $ ./bench/bench_service [clients] [queries_per_client]
//
// Two sections:
//  1. Query scaling — a fixed client fleet hammers `query` while the
//     worker pool grows 1 -> 2 -> 4. Queries are CPU-bound and
//     independent (read-only snapshots, no shared lock held during
//     evaluation), so throughput should scale with workers up to the
//     machine's core count. On a single-core host the expected ratio is
//     ~1x — the pool can only help as far as the hardware allows.
//  2. Mixed traffic — 4 client threads interleave query and re-extract
//     against the same workspace, validating the cache under write
//     pressure and reporting the per-verb latency histogram.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "catalog/workspace.h"
#include "extract/extractor.h"
#include "gen/dbg.h"
#include "service/request.h"
#include "service/server.h"
#include "util/timer.h"

using namespace schemex;  // NOLINT

namespace {

catalog::Workspace MakeWorkspace(uint64_t seed) {
  auto g = gen::MakeDbgDataset(seed);
  auto f = graph::Freeze(*g);
  if (!g.ok()) {
    std::fprintf(stderr, "gen: %s\n", g.status().ToString().c_str());
    std::exit(1);
  }
  extract::ExtractorOptions opt;
  opt.target_num_types = 6;
  auto r = extract::SchemaExtractor(opt).Run(*f);
  if (!r.ok()) {
    std::fprintf(stderr, "extract: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  catalog::Workspace ws;
  ws.graph = f;
  ws.program = r->final_program;
  ws.assignment = r->recast.assignment;
  return ws;
}

service::Request QueryRequest(int64_t id, const std::string& ws,
                              const char* query) {
  service::Request req;
  req.id = id;
  req.verb = service::Verb::kQuery;
  req.query.workspace = ws;
  req.query.query = query;
  req.query.limit = 0;  // count only; skip result materialization
  return req;
}

constexpr const char* kQueries[] = {"project.name", "author.name", "*.email",
                                    "member.project", "publication.name"};

/// Runs `clients` threads of `per_client` queries against a server with
/// `workers` pool threads; returns queries/second.
double QueryThroughput(size_t workers, size_t clients, size_t per_client) {
  service::ServerOptions opt;
  opt.num_threads = workers;
  opt.default_timeout_s = 0;  // measure work, not budget bookkeeping
  service::Server server(opt);
  // Several cached workspaces so clients spread across cache entries the
  // way a real multi-tenant service would.
  for (uint64_t s = 0; s < 3; ++s) {
    auto st = server.InstallWorkspace("ws" + std::to_string(s),
                                      MakeWorkspace(11 + s));
    if (!st.ok()) std::exit(1);
  }

  util::WallTimer timer;
  std::vector<std::thread> fleet;
  for (size_t c = 0; c < clients; ++c) {
    fleet.emplace_back([&, c] {
      for (size_t i = 0; i < per_client; ++i) {
        service::Request req =
            QueryRequest(static_cast<int64_t>(c * per_client + i),
                         "ws" + std::to_string((c + i) % 3),
                         kQueries[(c + i) % 5]);
        service::Response resp = server.Handle(req);
        if (!resp.status.ok()) {
          std::fprintf(stderr, "query failed: %s\n",
                       resp.status.ToString().c_str());
          std::exit(1);
        }
      }
    });
  }
  for (auto& t : fleet) t.join();
  return static_cast<double>(clients * per_client) / timer.ElapsedSeconds();
}

}  // namespace

int main(int argc, char** argv) {
  size_t clients = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 8;
  size_t per_client = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 2000;

  std::printf("hardware threads: %u\n", std::thread::hardware_concurrency());
  std::printf("clients: %zu, queries/client: %zu\n\n", clients, per_client);

  // --- 1. Query throughput vs. worker count. -------------------------
  std::printf("%-10s %14s %10s\n", "workers", "queries/sec", "vs 1");
  double base = 0;
  for (size_t workers : {1, 2, 4}) {
    double qps = QueryThroughput(workers, clients, per_client);
    if (workers == 1) base = qps;
    std::printf("%-10zu %14.0f %9.2fx\n", workers, qps, qps / base);
  }

  // --- 2. Mixed query + re-extract traffic at 4 workers. -------------
  std::printf("\nmixed traffic: 4 clients, query + interleaved re-extract\n");
  service::ServerOptions opt;
  opt.num_threads = 4;
  opt.default_timeout_s = 0;
  service::Server server(opt);
  if (!server.InstallWorkspace("dbg", MakeWorkspace(42)).ok()) return 1;

  util::WallTimer timer;
  std::vector<std::thread> fleet;
  for (size_t c = 0; c < 4; ++c) {
    fleet.emplace_back([&, c] {
      for (size_t i = 0; i < per_client / 4; ++i) {
        service::Request req;
        if (c == 0 && i % 64 == 0) {
          // Client 0 periodically re-extracts, swapping the schema under
          // the other clients' feet.
          req.id = static_cast<int64_t>(i);
          req.verb = service::Verb::kExtract;
          req.extract.workspace = "dbg";
          req.extract.k = (i / 64) % 2 == 0 ? 6 : 9;
        } else {
          req = QueryRequest(static_cast<int64_t>(c * per_client + i), "dbg",
                             kQueries[(c + i) % 5]);
        }
        service::Response resp = server.Handle(req);
        if (!resp.status.ok()) {
          std::fprintf(stderr, "mixed request failed: %s\n",
                       resp.status.ToString().c_str());
          std::exit(1);
        }
      }
    });
  }
  for (auto& t : fleet) t.join();
  double elapsed = timer.ElapsedSeconds();

  uint64_t total = 0;
  std::printf("%-10s %8s %7s %9s %9s %9s %9s\n", "verb", "count", "errors",
              "p50 ms", "p95 ms", "p99 ms", "max ms");
  for (const service::VerbStats& s : server.metrics().Snapshot()) {
    total += s.count;
    std::printf("%-10s %8llu %7llu %9.3f %9.3f %9.3f %9.3f\n", s.verb.c_str(),
                static_cast<unsigned long long>(s.count),
                static_cast<unsigned long long>(s.errors), s.p50_ms, s.p95_ms,
                s.p99_ms, s.max_ms);
  }
  std::printf("\n%.0f mixed requests/sec (%llu requests in %.2fs)\n",
              static_cast<double>(total) / elapsed,
              static_cast<unsigned long long>(total), elapsed);
  return 0;
}

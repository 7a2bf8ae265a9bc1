// TCP front-end latency/throughput bench: an in-process TcpServer on an
// ephemeral loopback port, hammered by 1, 4, and 16 blocking client
// connections issuing `query` requests. Emits one JSON row per
// configuration so CI or a notebook can track socket-path overhead over
// time:
//
//   {"bench":"tcp","connections":4,"requests":8000,"p50_ms":0.11,
//    "p99_ms":0.52,"req_per_s":35714.3}
//
//   $ ./bench/bench_tcp [requests_per_connection]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "catalog/workspace.h"
#include "extract/extractor.h"
#include "gen/dbg.h"
#include "service/server.h"
#include "service/tcp_client.h"
#include "service/tcp_server.h"
#include "util/string_util.h"
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

constexpr const char* kQueries[] = {"project.name", "author.name", "*.email",
                                    "member.project", "publication.name"};

/// One bench configuration: `connections` threads, each with its own TCP
/// connection, issuing `per_conn` serial request/response round trips.
/// Returns per-request latencies (ms) via `lat_ms` and total seconds.
double RunFleet(uint16_t port, size_t connections, size_t per_conn,
                std::vector<double>* lat_ms) {
  std::mutex mu;
  util::WallTimer timer;
  std::vector<std::thread> fleet;
  for (size_t c = 0; c < connections; ++c) {
    fleet.emplace_back([&, c] {
      auto client = service::TcpClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        std::fprintf(stderr, "connect: %s\n",
                     client.status().ToString().c_str());
        std::exit(1);
      }
      std::vector<double> local;
      local.reserve(per_conn);
      for (size_t i = 0; i < per_conn; ++i) {
        std::string line = util::StringPrintf(
            "{\"id\":%zu,\"verb\":\"query\",\"params\":{\"workspace\":"
            "\"ws%zu\",\"query\":\"%s\",\"limit\":0}}",
            c * per_conn + i, (c + i) % 3, kQueries[(c + i) % 5]);
        util::WallTimer rt;
        auto resp = client->Call(line);
        if (!resp.ok()) {
          std::fprintf(stderr, "call: %s\n", resp.status().ToString().c_str());
          std::exit(1);
        }
        local.push_back(rt.ElapsedSeconds() * 1e3);
      }
      std::lock_guard<std::mutex> lock(mu);
      lat_ms->insert(lat_ms->end(), local.begin(), local.end());
    });
  }
  for (auto& t : fleet) t.join();
  return timer.ElapsedSeconds();
}

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return v[idx];
}

}  // namespace

int main(int argc, char** argv) {
  size_t per_conn = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 2000;

  service::ServerOptions sopt;
  sopt.num_threads = 4;
  sopt.default_timeout_s = 0;  // measure work, not budget bookkeeping
  service::Server server(sopt);
  for (uint64_t s = 0; s < 3; ++s) {
    auto st = server.InstallWorkspace("ws" + std::to_string(s),
                                      MakeWorkspace(11 + s));
    if (!st.ok()) {
      std::fprintf(stderr, "install: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  service::TcpServer tcp(&server);
  if (auto st = tcp.Start(); !st.ok()) {
    std::fprintf(stderr, "listen: %s\n", st.ToString().c_str());
    return 1;
  }

  for (size_t connections : {1, 4, 16}) {
    std::vector<double> lat_ms;
    lat_ms.reserve(connections * per_conn);
    double elapsed = RunFleet(tcp.port(), connections, per_conn, &lat_ms);
    size_t requests = connections * per_conn;
    std::printf(
        "{\"bench\":\"tcp\",\"connections\":%zu,\"requests\":%zu,"
        "\"p50_ms\":%.4f,\"p99_ms\":%.4f,\"req_per_s\":%.1f}\n",
        connections, requests, Percentile(lat_ms, 0.50),
        Percentile(lat_ms, 0.99),
        static_cast<double>(requests) / elapsed);
    std::fflush(stdout);
  }

  tcp.Shutdown();
  return 0;
}

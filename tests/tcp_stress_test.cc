// Concurrent stress harness for the TCP front end, written to run under
// ASan+UBSan in CI: >= 8 client threads, >= 500 total requests of mixed
// verbs against multiple workspaces, forced mid-request disconnects, and
// a final graceful-drain shutdown with a request still in flight. Any
// cross-talk between connections shows up as an id or workspace-echo
// mismatch; any lifetime bug shows up as a sanitizer report.

#include "service/tcp_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "catalog/workspace.h"
#include "extract/extractor.h"
#include "gen/dbg.h"
#include "json/json.h"
#include "service/server.h"
#include "service/tcp_client.h"
#include "tests/test_util.h"
#include "util/string_util.h"

namespace schemex::service {
namespace {

using json::Value;

const Value& Field(const Value& obj, const std::string& key) {
  auto it = obj.AsObject().find(key);
  EXPECT_NE(it, obj.AsObject().end()) << "missing field " << key;
  static const Value kNull;
  return it == obj.AsObject().end() ? kNull : it->second;
}

catalog::Workspace MakeDbgWorkspace(uint64_t seed) {
  auto g = gen::MakeDbgDataset(seed);
  EXPECT_TRUE(g.ok());
  auto f = graph::Freeze(*g);
  extract::ExtractorOptions opt;
  opt.target_num_types = 6;
  auto r = extract::SchemaExtractor(opt).Run(*f);
  EXPECT_TRUE(r.ok());
  catalog::Workspace ws;
  ws.graph = f;
  ws.program = r->final_program;
  ws.assignment = r->recast.assignment;
  return ws;
}

TEST(TcpStressTest, ConcurrentClientsWithDisconnectsAndDrain) {
  constexpr int kThreads = 10;          // >= 8 concurrent connections
  constexpr int kPerThread = 60;        // 600 requests >= 500 total
  const char* kWorkspaces[] = {"ws0", "ws1", "ws2"};
  const char* kQueries[] = {"project.name", "author.name", "*.email",
                            "member"};

  Server server;
  for (int w = 0; w < 3; ++w) {
    ASSERT_OK(server.InstallWorkspace(kWorkspaces[w],
                                      MakeDbgWorkspace(3 + 2 * w)));
  }
  TcpServer tcp(&server);
  ASSERT_OK(tcp.Start());
  const uint16_t port = tcp.port();

  std::atomic<int> responses_ok{0};
  std::atomic<int> responses_err{0};
  std::atomic<int> mismatches{0};
  std::atomic<int> hard_failures{0};

  auto worker = [&](int t) {
    std::mt19937 rng(1234 + t);
    const bool disconnector = (t % 3 == 0);  // threads 0,3,6,9 drop lines
    auto client = TcpClient::Connect("127.0.0.1", port);
    if (!client.ok()) {
      ++hard_failures;
      return;
    }
    const std::string ws = kWorkspaces[t % 3];
    int sent_since_connect = 0;
    std::set<int64_t> outstanding;

    auto read_outstanding = [&]() -> bool {
      while (!outstanding.empty()) {
        auto line = client->ReadLine(/*timeout_s=*/60.0);
        if (!line.ok()) {
          ADD_FAILURE() << "thread " << t << ": " << line.status();
          ++hard_failures;
          return false;
        }
        auto v = json::Parse(*line);
        if (!v.ok()) {
          ADD_FAILURE() << "unparseable response: " << *line;
          ++hard_failures;
          return false;
        }
        int64_t id = static_cast<int64_t>(Field(*v, "id").AsNumber());
        // Cross-talk check #1: the id must be one this connection sent
        // and is still waiting for.
        if (outstanding.erase(id) != 1) {
          ++mismatches;
          ADD_FAILURE() << "thread " << t << " got foreign id " << id;
          return false;
        }
        if (Field(*v, "ok").AsBool()) {
          ++responses_ok;
          // Cross-talk check #2: query/stats responses must echo this
          // connection's workspace, never a sibling's.
          const Value& result = Field(*v, "result");
          auto wit = result.AsObject().find("workspace");
          if (wit != result.AsObject().end() &&
              wit->second.AsString() != ws) {
            ++mismatches;
            ADD_FAILURE() << "thread " << t << " got workspace "
                          << wit->second.AsString() << ", want " << ws;
            return false;
          }
        } else {
          ++responses_err;
        }
      }
      return true;
    };

    for (int i = 0; i < kPerThread; ++i) {
      const int64_t id = static_cast<int64_t>(t) * 1000000 + i;
      std::string line;
      switch (i % 10) {
        case 7:
          line = util::StringPrintf("{\"id\":%lld,\"verb\":\"stats\"}",
                                    static_cast<long long>(id));
          break;
        case 8:
          line = util::StringPrintf(
              "{\"id\":%lld,\"verb\":\"list_workspaces\"}",
              static_cast<long long>(id));
          break;
        case 9:
          // Guaranteed error traffic: a workspace nobody installed.
          line = util::StringPrintf(
              "{\"id\":%lld,\"verb\":\"query\",\"params\":{\"workspace\":"
              "\"nope\",\"query\":\"a.b\"}}",
              static_cast<long long>(id));
          break;
        default:
          line = util::StringPrintf(
              "{\"id\":%lld,\"verb\":\"query\",\"params\":{\"workspace\":"
              "\"%s\",\"query\":\"%s\",\"limit\":3}}",
              static_cast<long long>(id), ws.c_str(),
              kQueries[(t + i) % 4]);
      }

      if (disconnector && i > 0 && i % 20 == 0) {
        // Forced mid-request disconnect: send a request (plus half of a
        // second one) and slam the connection without reading anything.
        // The server must absorb the orphaned work and the half line.
        (void)client->SendLine(line);
        (void)client->SendRaw("{\"id\":1,\"verb\":\"sta");
        client->Close();
        outstanding.clear();
        client = TcpClient::Connect("127.0.0.1", port);
        if (!client.ok()) {
          ++hard_failures;
          return;
        }
        sent_since_connect = 0;
        continue;
      }

      if (!client->SendLine(line).ok()) {
        ++hard_failures;
        return;
      }
      outstanding.insert(id);
      ++sent_since_connect;
      // Pipeline in small random batches so reads and writes interleave
      // differently on every thread.
      if (sent_since_connect >=
          std::uniform_int_distribution<int>(1, 6)(rng)) {
        if (!read_outstanding()) return;
        sent_since_connect = 0;
      }
    }
    read_outstanding();
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(hard_failures.load(), 0);
  // Disconnector threads abandon some requests, but the total answered
  // load still clears the acceptance floor with a wide margin.
  EXPECT_GE(responses_ok.load() + responses_err.load(), 500);
  EXPECT_GT(responses_ok.load(), 0);
  EXPECT_GT(responses_err.load(), 0);  // the "nope" workspace traffic

  // Graceful drain with a request genuinely in flight: the response must
  // be flushed before the connection is torn down.
  auto last = TcpClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(last.ok()) << last.status();
  ASSERT_OK(last->SendLine(
      "{\"id\":777,\"verb\":\"extract\",\"params\":{\"workspace\":\"ws0\","
      "\"k\":6}}"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread shutdown([&] { tcp.Shutdown(); });
  auto line = last->ReadLine(/*timeout_s=*/60.0);
  shutdown.join();
  ASSERT_TRUE(line.ok()) << line.status();
  auto v = json::Parse(*line);
  ASSERT_TRUE(v.ok()) << *line;
  EXPECT_EQ(Field(*v, "id").AsNumber(), 777);
  EXPECT_TRUE(Field(*v, "ok").AsBool()) << *line;
  EXPECT_EQ(tcp.open_connections(), 0u);

  // Transport counters survived the riot and still make sense.
  int64_t accepted = 0, open = -1, bytes_in = 0, bytes_out = 0;
  for (const auto& [name, value] : server.metrics().CounterSnapshot()) {
    if (name == "tcp.connections_accepted") accepted = value;
    if (name == "tcp.connections_open") open = value;
    if (name == "tcp.bytes_in") bytes_in = value;
    if (name == "tcp.bytes_out") bytes_out = value;
  }
  EXPECT_GE(accepted, kThreads);
  EXPECT_EQ(open, 0);
  EXPECT_GT(bytes_in, 0);
  EXPECT_GT(bytes_out, 0);
}

}  // namespace
}  // namespace schemex::service

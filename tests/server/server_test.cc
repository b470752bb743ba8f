// End-to-end tests for the server front-end: one process hosts the server,
// clients connect over loopback. Every server binds port 0 (ephemeral), so
// tests never collide with each other or a developer's running server.
#include "server/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <fstream>

#include "client/client.h"
#include "core/calibration.h"
#include "server/wire.h"
#include "sql/database.h"
#include "test_util.h"
#include "util/random.h"
#include "util/socket.h"
#include "workload/synthetic.h"

namespace rma::server {
namespace {

using client::Client;
using client::ExecResult;
using ::rma::testing::RandomKeyedRelation;

void ExpectSameRelation(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (int c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.schema().attribute(c).name, b.schema().attribute(c).name);
    EXPECT_EQ(a.schema().attribute(c).type, b.schema().attribute(c).type);
  }
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.num_columns(); ++c) {
      ASSERT_EQ(a.Get(r, c), b.Get(r, c)) << "row " << r << " col " << c;
    }
  }
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.Register("weather", testing::WeatherRelation()).Abort();
    db_.Register("rating", testing::RatingsRelation()).Abort();
    Rng rng(17);
    db_.Register("m", RandomKeyedRelation(600, 3, &rng, -5.0, 5.0, "m"))
        .Abort();
  }

  // Starts the server on an ephemeral port; call at most once per test.
  void StartServer(ServerOptions opts = {}) {
    opts.port = 0;
    server_ = std::make_unique<Server>(&db_, opts);
    ASSERT_OK(server_->Start());
  }

  Client Connect() {
    auto conn = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(conn.ok()) << conn.status().ToString();
    return std::move(conn).ValueOrDie();
  }

  sql::Database db_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, StartStopIdle) {
  StartServer();
  EXPECT_GT(server_->port(), 0);
  server_->Stop();
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.sessions_accepted, 0);
  EXPECT_EQ(stats.statements_executed, 0);
}

TEST_F(ServerTest, StopIsIdempotent) {
  StartServer();
  server_->Stop();
  server_->Stop();
}

TEST_F(ServerTest, StreamedResultMatchesInProcessExecute) {
  StartServer();
  Client c = Connect();
  const std::vector<std::string> statements = {
      "SELECT * FROM weather;",
      "SELECT * FROM TRA(weather BY T);",
      "SELECT * FROM MMU(TRA(rating BY User) BY C, rating BY User);",
      "SELECT * FROM QQR(m BY id);",
  };
  for (const std::string& sql : statements) {
    ASSERT_OK_AND_ASSIGN(Relation streamed, c.Query(sql));
    ASSERT_OK_AND_ASSIGN(Relation local, db_.Execute(sql));
    ExpectSameRelation(streamed, local);
  }
}

TEST_F(ServerTest, ResultsStreamInBatches) {
  ServerOptions opts;
  opts.row_batch_rows = 64;
  StartServer(opts);
  Client c = Connect();
  ASSERT_OK_AND_ASSIGN(ExecResult result, c.Execute("SELECT * FROM m;"));
  EXPECT_EQ(result.rows, 600u);
  EXPECT_EQ(result.batches, (600 + 63) / 64);
  EXPECT_EQ(result.relation.num_rows(), 600);

  // Streaming consumption sees every row without accumulating.
  int64_t streamed_rows = 0;
  int64_t callbacks = 0;
  ASSERT_OK_AND_ASSIGN(
      ExecResult stream_result,
      c.ExecuteStreaming("SELECT * FROM m;", [&](const Relation& batch) {
        streamed_rows += batch.num_rows();
        ++callbacks;
        return Status::OK();
      }));
  EXPECT_EQ(streamed_rows, 600);
  EXPECT_EQ(callbacks, stream_result.batches);
  EXPECT_EQ(stream_result.relation.num_rows(), 0);  // not accumulated
}

TEST_F(ServerTest, EmptyResultStreamsHeaderAndComplete) {
  StartServer();
  Client c = Connect();
  ASSERT_OK_AND_ASSIGN(ExecResult result,
                       c.Execute("DROP TABLE weather;"));
  EXPECT_EQ(result.rows, 0u);
  EXPECT_EQ(result.batches, 0);
}

TEST_F(ServerTest, PreparedStatementsReplayThroughPlanCache) {
  StartServer();
  Client c = Connect();
  ASSERT_OK_AND_ASSIGN(uint64_t handle,
                       c.Prepare("SELECT * FROM QQR(m BY id);"));
  ASSERT_OK_AND_ASSIGN(ExecResult first, c.ExecutePrepared(handle));
  ASSERT_OK_AND_ASSIGN(ExecResult second, c.ExecutePrepared(handle));
  EXPECT_EQ(first.rows, second.rows);
  EXPECT_EQ(second.plan_cache, 1) << "second execution must hit the cache";

  // The cache is shared across sessions: a different connection executing
  // the same text also hits.
  Client other = Connect();
  ASSERT_OK_AND_ASSIGN(ExecResult cross,
                       other.Execute("SELECT * FROM QQR(m BY id);"));
  EXPECT_EQ(cross.plan_cache, 1);
}

TEST_F(ServerTest, PrepareRejectsMalformedSql) {
  StartServer();
  Client c = Connect();
  auto result = c.Prepare("SELEC nonsense");
  EXPECT_FALSE(result.ok());
  // The session survives the failed PREPARE.
  ASSERT_OK_AND_ASSIGN(ExecResult ok, c.Execute("SELECT * FROM weather;"));
  EXPECT_EQ(ok.rows, 4u);
}

TEST_F(ServerTest, UnknownPreparedHandleIsIsolatedError) {
  StartServer();
  Client c = Connect();
  auto result = c.ExecutePrepared(999);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().code() == StatusCode::kKeyError)
      << result.status().ToString();
  ASSERT_OK_AND_ASSIGN(ExecResult ok, c.Execute("SELECT * FROM weather;"));
  EXPECT_EQ(ok.rows, 4u);
}

TEST_F(ServerTest, StatementErrorsAreIsolatedPerSession) {
  StartServer();
  Client a = Connect();
  Client b = Connect();
  // A statement-level failure on A answers A with the server-side Status
  // and must not disturb A's session or B's.
  auto bad = a.Execute("SELECT * FROM no_such_table;");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().code() == StatusCode::kKeyError)
      << bad.status().ToString();
  ASSERT_OK_AND_ASSIGN(ExecResult a_ok, a.Execute("SELECT * FROM weather;"));
  EXPECT_EQ(a_ok.rows, 4u);
  ASSERT_OK_AND_ASSIGN(ExecResult b_ok, b.Execute("SELECT * FROM rating;"));
  EXPECT_EQ(b_ok.rows, 3u);
  server_->Stop();
  EXPECT_EQ(server_->stats().statements_failed, 1);
}

TEST_F(ServerTest, SessionOptionsAreIsolated) {
  StartServer();
  Client a = Connect();
  Client b = Connect();
  // A forces the scalar BAT kernels, B the contiguous (dense) ones; each
  // session's EXPLAIN must reflect its own choice for the same statement.
  ASSERT_OK(a.SetOption("kernel", "bat"));
  ASSERT_OK(a.SetOption("max_threads", "1"));
  ASSERT_OK(b.SetOption("kernel", "contiguous"));
  ASSERT_OK_AND_ASSIGN(
      Relation a_plan,
      a.Query("EXPLAIN SELECT * FROM MMU(TRA(rating BY User) BY C,"
              " rating BY User);"));
  ASSERT_OK_AND_ASSIGN(
      Relation b_plan,
      b.Query("EXPLAIN SELECT * FROM MMU(TRA(rating BY User) BY C,"
              " rating BY User);"));
  auto plan_text = [](const Relation& plan) {
    std::string text;
    for (int64_t r = 0; r < plan.num_rows(); ++r) {
      text += ValueToString(plan.Get(r, 0));
      text += '\n';
    }
    return text;
  };
  EXPECT_NE(plan_text(a_plan).find("kernel=bat"), std::string::npos)
      << plan_text(a_plan);
  EXPECT_EQ(plan_text(b_plan).find("kernel=bat"), std::string::npos)
      << plan_text(b_plan);

  // Invalid values are rejected and leave the session's options unchanged.
  EXPECT_FALSE(a.SetOption("kernel", "gpu").ok());
  EXPECT_FALSE(a.SetOption("no_such_option", "1").ok());
  EXPECT_FALSE(a.SetOption("max_threads", "not_a_number").ok());
  ASSERT_OK_AND_ASSIGN(ExecResult still_ok,
                       a.Execute("SELECT * FROM weather;"));
  EXPECT_EQ(still_ok.rows, 4u);
}

TEST_F(ServerTest, ConcurrentClientsInterleaveDdlAndSelect) {
  StartServer();
  constexpr int kClients = 8;
  constexpr int kRounds = 5;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([this, i, &failures] {
      auto conn = Client::Connect("127.0.0.1", server_->port());
      if (!conn.ok()) {
        ++failures;
        return;
      }
      Client c = std::move(*conn);
      const std::string table = "t" + std::to_string(i);
      for (int round = 0; round < kRounds; ++round) {
        // Per-session table names, so DDL from different sessions
        // interleaves without conflicting.
        auto created = c.Execute("CREATE TABLE " + table +
                                 " AS SELECT * FROM QQR(m BY id);");
        if (!created.ok()) ++failures;
        auto select = c.Execute("SELECT * FROM " + table + ";");
        if (!select.ok() || select->rows != 600) ++failures;
        auto dropped = c.Execute("DROP TABLE " + table + ";");
        if (!dropped.ok()) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  server_->Stop();
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.sessions_accepted, kClients);
  EXPECT_EQ(stats.statements_executed, kClients * kRounds * 3);
  EXPECT_EQ(stats.statements_failed, 0);
}

TEST_F(ServerTest, AdmissionBoundsInFlightStatements) {
  ServerOptions opts;
  opts.max_inflight_statements = 2;
  StartServer(opts);
  constexpr int kClients = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([this, &failures] {
      auto conn = Client::Connect("127.0.0.1", server_->port());
      if (!conn.ok()) {
        ++failures;
        return;
      }
      Client c = std::move(*conn);
      for (int round = 0; round < 3; ++round) {
        auto result = c.Execute("SELECT * FROM QQR(m BY id);");
        if (!result.ok() || result->rows != 600) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  server_->Stop();
  const ServerStats stats = server_->stats();
  // The acceptance bar: the admission counter never exceeds the budget.
  EXPECT_LE(stats.peak_in_flight, 2);
  EXPECT_EQ(stats.statements_executed, kClients * 3);
}

TEST_F(ServerTest, MidStreamDisconnectLeavesServerServing) {
  ServerOptions opts;
  opts.row_batch_rows = 32;  // many batches, so the hang-up lands mid-stream
  StartServer(opts);
  {
    Client c = Connect();
    int64_t seen = 0;
    auto result = c.ExecuteStreaming(
        "SELECT * FROM m;", [&](const Relation& batch) -> Status {
          seen += batch.num_rows();
          return Status::IoError("client bails mid-stream");
        });
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(seen, 32);
    EXPECT_FALSE(c.connected());
  }
  // The server must shrug the broken socket off and serve new sessions.
  Client fresh = Connect();
  ASSERT_OK_AND_ASSIGN(ExecResult ok, fresh.Execute("SELECT * FROM m;"));
  EXPECT_EQ(ok.rows, 600u);
}

TEST_F(ServerTest, SessionCapacityRefusalCarriesReason) {
  ServerOptions opts;
  opts.max_sessions = 1;
  StartServer(opts);
  Client first = Connect();
  auto second = Client::Connect("127.0.0.1", server_->port());
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().code() == StatusCode::kResourceExhausted)
      << second.status().ToString();
  // Capacity frees when the first session ends.
  first.Close();
  for (int attempt = 0; attempt < 50; ++attempt) {
    auto retry = Client::Connect("127.0.0.1", server_->port());
    if (retry.ok()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  FAIL() << "session slot never freed after disconnect";
}

TEST_F(ServerTest, ProtocolVersionMismatchIsRefused) {
  StartServer();
  ASSERT_OK_AND_ASSIGN(Socket raw,
                       ConnectSocket("127.0.0.1", server_->port()));
  WireWriter hello;
  hello.PutU32(kProtocolVersion + 41);
  ASSERT_OK(SendFrame(raw, MessageType::kHello, hello.str()));
  ASSERT_OK_AND_ASSIGN(Frame frame, RecvFrame(raw));
  ASSERT_TRUE(frame.type == MessageType::kError);
  const Status err = DecodeError(frame.payload);
  EXPECT_TRUE(err.code() == StatusCode::kInvalidArgument) << err.ToString();
  EXPECT_NE(err.message().find("version"), std::string::npos);
}

TEST_F(ServerTest, StopReturnsDespiteStalledConnections) {
  ServerOptions opts;
  opts.drain_timeout_ms = 200;
  StartServer(opts);
  // A client that connects and never sends a byte: the session's pre-HELLO
  // drain poll notices Stop() within its poll interval.
  ASSERT_OK_AND_ASSIGN(Socket silent,
                       ConnectSocket("127.0.0.1", server_->port()));
  // A client that sends half a frame: the header promises 64 bytes that
  // never arrive, so after WaitReadable fires the session wedges inside
  // RecvFrame — only Stop()'s post-deadline socket Shutdown() can free it.
  ASSERT_OK_AND_ASSIGN(Socket torn,
                       ConnectSocket("127.0.0.1", server_->port()));
  const char partial_header[4] = {64, 0, 0, 0};
  ASSERT_OK(torn.SendAll(partial_header, sizeof(partial_header)));
  // Let both sessions reach their blocked states, and a healthy client
  // keep working alongside them.
  Client healthy = Connect();
  ASSERT_OK_AND_ASSIGN(ExecResult ok, healthy.Execute("SELECT * FROM m;"));
  EXPECT_EQ(ok.rows, 600u);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  const auto t0 = std::chrono::steady_clock::now();
  server_->Stop();  // must not hang on either stalled connection
  const auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_LT(stop_ms, 4000) << "Stop() hung on a stalled connection";
}

TEST_F(ServerTest, FinishedSessionThreadsAreReaped) {
  StartServer();
  constexpr int kChurn = 20;
  for (int i = 0; i < kChurn; ++i) {
    Client c = Connect();
    ASSERT_OK_AND_ASSIGN(ExecResult r, c.Execute("SELECT * FROM weather;"));
    EXPECT_EQ(r.rows, 4u);
  }
  // Each accept sweeps threads of sessions that have since finished, so the
  // tracked set must settle near the live connection count, never the
  // churn total. Sessions end asynchronously after the GOODBYE; each probe
  // connection triggers another sweep.
  int tracked = kChurn;
  for (int attempt = 0; attempt < 100 && tracked > 3; ++attempt) {
    Client probe = Connect();
    tracked = server_->tracked_session_threads();
    probe.Close();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(tracked, 3) << "finished session threads accumulate";
}

TEST_F(ServerTest, CalibrationPathRefusedWithoutConfiguredDir) {
  StartServer();
  Client c = Connect();
  EXPECT_FALSE(c.SetOption("calibration_path", "profile.json").ok());
  // The refusal is an option-level error; the session lives on.
  ASSERT_OK_AND_ASSIGN(ExecResult ok, c.Execute("SELECT * FROM weather;"));
  EXPECT_EQ(ok.rows, 4u);
}

TEST_F(ServerTest, CalibrationPathConfinedToConfiguredDir) {
  const ::rma::testing::TempDirectory dir;
  ServerOptions opts;
  opts.calibration_dir = dir.path;
  StartServer(opts);
  const std::string name = "rma_server_session_profile.json";
  ASSERT_OK(CostProfile::Analytic().SaveFile(opts.calibration_dir + "/" +
                                             name));
  Client c = Connect();
  ASSERT_OK(c.SetOption("calibration_path", name));
  ASSERT_OK_AND_ASSIGN(ExecResult ok, c.Execute("SELECT * FROM m;"));
  EXPECT_EQ(ok.rows, 600u);

  // Anything but a bare file name inside the allowlist is refused: path
  // separators, traversal, hidden files, absolute paths.
  EXPECT_FALSE(c.SetOption("calibration_path", "../" + name).ok());
  EXPECT_FALSE(c.SetOption("calibration_path", "/etc/hostname").ok());
  EXPECT_FALSE(c.SetOption("calibration_path", "sub/" + name).ok());
  EXPECT_FALSE(c.SetOption("calibration_path", ".hidden.json").ok());
  EXPECT_FALSE(c.SetOption("calibration_path", "").ok());

  // A missing profile is an error, never a server-side probe-and-save —
  // the in-process LoadOrProbe lifecycle would have written this file.
  const std::string missing = "rma_server_no_such_profile.json";
  EXPECT_FALSE(c.SetOption("calibration_path", missing).ok());
  std::ifstream probe(opts.calibration_dir + "/" + missing);
  EXPECT_FALSE(probe.good())
      << "refused calibration_path still wrote a probe profile";
}

TEST_F(ServerTest, GracefulShutdownDrainsInFlightStatements) {
  StartServer();
  constexpr int kClients = 6;
  std::atomic<int> completed{0};
  std::atomic<int> refused{0};
  std::atomic<int> broken{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([this, &completed, &refused, &broken] {
      auto conn = Client::Connect("127.0.0.1", server_->port());
      if (!conn.ok()) {
        ++broken;
        return;
      }
      Client c = std::move(*conn);
      for (int round = 0; round < 10; ++round) {
        auto result = c.Execute("SELECT * FROM QQR(m BY id);");
        if (result.ok() && result->rows == 600) {
          ++completed;
        } else if (!result.ok() &&
                   result.status().code() == StatusCode::kResourceExhausted) {
          // Refused during drain: the documented outcome.
          ++refused;
          return;
        } else {
          // Connection torn down during shutdown; also a clean outcome.
          ++broken;
          return;
        }
      }
    });
  }
  // Let some statements land, then drain while others are still running.
  // (Bounded wait: Stop() below unsticks everything even if this times out.)
  for (int spin = 0; completed.load() < kClients && spin < 30000; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server_->Stop();
  for (auto& t : threads) t.join();
  // Every admitted statement either completed with its full result or was
  // explicitly refused/disconnected; nothing hangs.
  EXPECT_GE(completed.load(), kClients);
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.statements_refused, refused.load());
}

}  // namespace
}  // namespace rma::server

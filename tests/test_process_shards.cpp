// Process-level shard workers under the Supervisor front door
// (src/net/supervisor.h): one worker process per shard, spawned from the
// built emmark_cli, proxied over per-worker Unix sockets. Covers the
// fault model end to end with real SIGKILLs -- a killed worker fails its
// in-flight requests with structured retryable errors, sibling shards
// keep serving byte-identical responses, and the supervisor respawns the
// worker with bounded exponential backoff (exercised both via kill -9 and
// via the EMMARK_TEST_CRASH_ON fault-injection hook the shard-worker
// honours).
//
// ctest runs these binaries with the build directory as CWD, so the
// worker binary is reachable as ./emmark_cli.
#include <gtest/gtest.h>

#include <signal.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "cli/router.h"
#include "model_zoo/store.h"
#include "model_zoo/zoo.h"
#include "net/client.h"
#include "net/supervisor.h"

namespace emmark {
namespace {

class ProcessShardsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = (std::filesystem::temp_directory_path() / "emmark_procs_test").string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  static void TearDownTestSuite() { std::filesystem::remove_all(dir_); }

  /// Worker fleet config: the built CLI as the worker binary (ctest runs
  /// tests from the build dir), a per-test socket dir, and the same small
  /// backend the in-process server tests use.
  static SupervisorConfig config(const std::string& name, size_t shards) {
    SupervisorConfig sc;
    sc.worker_cmd = "./emmark_cli";
    sc.socket_dir = dir_ + "/sk_" + name;
    std::filesystem::create_directories(sc.socket_dir);
    sc.router.cache_dir = dir_ + "/cache";  // shared: builds warm across tests
    sc.router.train_steps_cap = 25;
    sc.router.store_capacity = 2;
    sc.router.shards = shards;
    return sc;
  }

  static std::string path(const std::string& name) { return dir_ + "/" + name; }

  static bool ok(const std::string& line) {
    return line.find("\"ok\":true") != std::string::npos;
  }
  static bool retryable(const std::string& line) {
    return line.find("\"retryable\":true") != std::string::npos;
  }

  /// Polls `pred` until true or the timeout expires.
  static bool wait_for(const std::function<bool()>& pred, int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
  }

  static bool all_ready(const Supervisor& sup) {
    for (size_t i = 0; i < sup.workers(); ++i) {
      if (!sup.worker_ready(i)) return false;
    }
    return true;
  }

  /// Quant specs on the cheap model that home on shard 0 / shard 1 of a
  /// two-shard ring. Computed from the same ring the supervisor uses, so
  /// the pairing survives any rehash of the ring constants; the ASSERT
  /// fires if every candidate ever collapses onto one shard.
  static void cross_shard_quants(std::string& on0, std::string& on1) {
    const ShardRouter ring(2);
    on0.clear();
    on1.clear();
    for (const char* q : {"int4", "gptq-int4", "rtn-int4", "int8", "rtn-int8"}) {
      ModelSpec spec;
      spec.method = parse_quant_spec(q, zoo_entry(spec.model).family);
      spec.train_steps_cap = 25;
      std::string& slot = ring.shard_for(spec.key()) == 0 ? on0 : on1;
      if (slot.empty()) slot = q;
    }
    ASSERT_FALSE(on0.empty());
    ASSERT_FALSE(on1.empty());
  }

  static std::string dir_;
};

std::string ProcessShardsTest::dir_;

/// A supervisor + its run() thread, torn down gracefully.
struct RunningSupervisor {
  explicit RunningSupervisor(SupervisorConfig sc)
      : sup(std::move(sc)), thread([this] { sup.run(); }) {}
  ~RunningSupervisor() { stop(); }
  void stop() {
    sup.request_stop();
    if (thread.joinable()) thread.join();
  }

  Supervisor sup;
  std::thread thread;
};

/// Scoped EMMARK_TEST_CRASH_ON: workers inherit the supervisor process's
/// environment at spawn time, so setting it here arms every worker spawned
/// while the guard lives. Always unset on scope exit (even on ASSERT
/// failures) so later tests spawn clean workers.
struct CrashOnGuard {
  explicit CrashOnGuard(const std::string& value) {
    ::setenv("EMMARK_TEST_CRASH_ON", value.c_str(), 1);
  }
  ~CrashOnGuard() { ::unsetenv("EMMARK_TEST_CRASH_ON"); }
};

TEST_F(ProcessShardsTest, SpawnsWorkersAndServesAcrossShards) {
  std::string quant0, quant1;
  cross_shard_quants(quant0, quant1);

  RunningSupervisor rs(config("spawn", 2));
  ASSERT_TRUE(wait_for([&] { return all_ready(rs.sup); }, 30000));
  ASSERT_EQ(rs.sup.workers(), 2u);
  EXPECT_GT(rs.sup.worker_pid(0), 0);
  EXPECT_GT(rs.sup.worker_pid(1), 0);
  EXPECT_NE(rs.sup.worker_pid(0), rs.sup.worker_pid(1));
  EXPECT_EQ(rs.sup.worker_respawns(0), 0u);
  EXPECT_EQ(rs.sup.worker_respawns(1), 0u);

  LineClient client("127.0.0.1", rs.sup.port());
  const auto lines = client.roundtrip(
      {"insert id=a model=opt-125m-sim quant=" + quant0,
       "insert id=b model=opt-125m-sim quant=" + quant1, "stats id=s"},
      3);
  EXPECT_TRUE(ok(lines[0])) << lines[0];
  EXPECT_TRUE(ok(lines[1])) << lines[1];
  // The merged stats report one entry per worker, renumbered to fleet
  // shard indices just like the in-process router's response.
  EXPECT_TRUE(ok(lines[2])) << lines[2];
  EXPECT_NE(lines[2].find("\"shard\":0"), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find("\"shard\":1"), std::string::npos) << lines[2];

  // Fleet-merged metrics: supervisor's own series plus every worker's,
  // one scrape, "# EOF"-framed like a single-process server.
  client.send_line("metrics id=m");
  const auto metric_lines = client.recv_until("# EOF");
  std::string merged;
  for (const auto& l : metric_lines) merged += l + "\n";
  EXPECT_NE(merged.find("emmark_supervisor_worker_up{shard=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(merged.find("emmark_supervisor_worker_up{shard=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(merged.find("emmark_requests_total"), std::string::npos);

  // quit sums served over this connection's workers (the two inserts;
  // stats and metrics are not engine verbs) and then closes.
  client.send_line("quit");
  std::string line;
  ASSERT_TRUE(client.recv_line(line));
  EXPECT_NE(line.find("\"cmd\":\"quit\",\"ok\":true"), std::string::npos) << line;
  EXPECT_NE(line.find("\"served\":2"), std::string::npos) << line;
  EXPECT_FALSE(client.recv_line(line));  // then EOF
}

TEST_F(ProcessShardsTest, SigkillMidBurstRespawnsAndIsolatesSiblings) {
  // The acceptance shape: kill -9 one worker mid-burst; only requests
  // homed on the killed shard fail (with "retryable":true), the sibling
  // shard's responses are byte-identical to pre-kill responses, and the
  // worker respawns and serves again.
  std::string quant0, quant1;
  cross_shard_quants(quant0, quant1);

  SupervisorConfig sc = config("kill", 2);
  // Wide enough backoff that the post-kill fast-fail window is reliably
  // observable, short enough that the respawn wait stays snappy.
  sc.respawn_backoff_ms = 500;
  RunningSupervisor rs(sc);
  ASSERT_TRUE(wait_for([&] { return all_ready(rs.sup); }, 30000));

  LineClient client("127.0.0.1", rs.sup.port());
  // Warm both shards and mint artifacts on each so extracts are cheap and
  // deterministic.
  const std::string spec0 = "model=opt-125m-sim quant=" + quant0;
  const std::string spec1 = "model=opt-125m-sim quant=" + quant1;
  const std::string art0 = " record=" + path("k0.rec") + " codes=" + path("k0.codes");
  const std::string art1 = " record=" + path("k1.rec") + " codes=" + path("k1.codes");
  auto warm = client.roundtrip({"insert id=w0 " + spec0 + art0,
                                "insert id=w1 " + spec1 + art1},
                               2);
  ASSERT_TRUE(ok(warm[0])) << warm[0];
  ASSERT_TRUE(ok(warm[1])) << warm[1];

  // Baseline response on the shard that will survive.
  const std::string probe = "extract id=probe " + spec1 + art1;
  const auto baseline = client.roundtrip({probe}, 1);
  ASSERT_TRUE(ok(baseline[0])) << baseline[0];

  // Burst across both shards, then SIGKILL shard 0's worker while the
  // burst is in flight.
  const pid_t victim = rs.sup.worker_pid(0);
  ASSERT_GT(victim, 0);
  constexpr int kBurst = 8;
  std::vector<bool> on_killed_shard;
  for (int r = 0; r < kBurst; ++r) {
    const bool to0 = (r % 2) == 0;
    on_killed_shard.push_back(to0);
    client.send_line("extract id=burst-" + std::to_string(r) + " " +
                     (to0 ? spec0 + art0 : spec1 + art1));
  }
  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  // Per-connection ordering holds even across the fault: every burst
  // request gets exactly one response, in order. Requests on the killed
  // shard either finished before the kill landed or fail retryable;
  // sibling-shard requests must all succeed.
  for (int r = 0; r < kBurst; ++r) {
    std::string line;
    ASSERT_TRUE(client.recv_line(line)) << "lost response " << r;
    EXPECT_NE(line.find("\"id\":\"burst-" + std::to_string(r) + "\""),
              std::string::npos)
        << line;
    if (on_killed_shard[r]) {
      EXPECT_TRUE(ok(line) || retryable(line)) << line;
    } else {
      EXPECT_TRUE(ok(line)) << line;
      EXPECT_FALSE(retryable(line)) << line;
    }
  }

  // While the worker is down (the supervisor is waiting out the backoff),
  // requests homed on it fast-fail with the structured retryable error.
  ASSERT_TRUE(wait_for([&] { return !rs.sup.worker_ready(0); }, 10000));
  const auto down = client.roundtrip({"extract id=down " + spec0 + art0}, 1);
  EXPECT_TRUE(retryable(down[0])) << down[0];
  EXPECT_NE(down[0].find("worker unavailable (respawning)"), std::string::npos)
      << down[0];

  // The sibling shard never noticed: same request line, same bytes.
  const auto again = client.roundtrip({probe}, 1);
  EXPECT_EQ(again[0], baseline[0]);

  // Respawn: new pid, respawn counter bumped, shard serving again.
  ASSERT_TRUE(wait_for([&] { return rs.sup.worker_ready(0); }, 30000));
  EXPECT_GE(rs.sup.worker_respawns(0), 1u);
  EXPECT_GT(rs.sup.worker_pid(0), 0);
  EXPECT_NE(rs.sup.worker_pid(0), victim);
  EXPECT_EQ(rs.sup.worker_respawns(1), 0u);
  const auto back = client.roundtrip({"extract id=back " + spec0 + art0}, 1);
  EXPECT_TRUE(ok(back[0])) << back[0];
}

TEST_F(ProcessShardsTest, CrashLoopingWorkerCapsBackoffAndRecovers) {
  // EMMARK_TEST_CRASH_ON=startup makes every spawned worker exit before
  // binding its socket: a crash loop. The supervisor must keep respawning
  // with exponential backoff that caps (never busy-spins, never gives
  // up), fast-fail requests with retryable errors meanwhile, and recover
  // on its own once workers stop dying.
  SupervisorConfig sc = config("loop", 1);
  sc.respawn_backoff_ms = 25;
  sc.respawn_backoff_max_ms = 100;
  int observed_max = 0;
  {
    CrashOnGuard crash("startup");
    RunningSupervisor rs(sc);

    // backoff 25 -> 50 -> 100 (cap) -> 100 ...: five respawns arrive
    // within ~300ms of spawn overhead-free time; the generous timeout
    // absorbs slow CI. Track the published backoff while waiting.
    ASSERT_TRUE(wait_for(
        [&] {
          observed_max = std::max(observed_max, rs.sup.worker_backoff_ms(0));
          return rs.sup.worker_respawns(0) >= 5;
        },
        30000));
    EXPECT_EQ(observed_max, sc.respawn_backoff_max_ms);
    EXPECT_FALSE(rs.sup.worker_ready(0));

    // The front door still answers -- with a fast structured failure, not
    // a hang. (Accept is gated only on the *first* spawn resolving, which
    // a startup crash does.)
    LineClient client("127.0.0.1", rs.sup.port());
    const auto lines =
        client.roundtrip({"insert id=x model=opt-125m-sim quant=int4"}, 1);
    EXPECT_TRUE(retryable(lines[0])) << lines[0];

    // Drop the fault: the next respawn (the guard's unsetenv takes effect
    // at the next fork) comes up and the shard starts serving.
    ::unsetenv("EMMARK_TEST_CRASH_ON");
    ASSERT_TRUE(wait_for([&] { return rs.sup.worker_ready(0); }, 30000));
    const auto ok_lines =
        client.roundtrip({"insert id=y model=opt-125m-sim quant=int4"}, 1);
    EXPECT_TRUE(ok(ok_lines[0])) << ok_lines[0];
  }
}

TEST_F(ProcessShardsTest, CrashOnRequestFailsRetryableAndRespawns) {
  // The other fault-injection hook: EMMARK_TEST_CRASH_ON=<substring> kills
  // the worker the moment a request line containing it arrives -- the
  // mid-request crash. The requesting client gets a retryable error (not
  // a hang, not a dropped connection) and the worker comes back.
  SupervisorConfig sc = config("boom", 1);
  sc.respawn_backoff_ms = 50;
  CrashOnGuard crash("id=boom");
  RunningSupervisor rs(sc);
  ASSERT_TRUE(wait_for([&] { return all_ready(rs.sup); }, 30000));

  LineClient client("127.0.0.1", rs.sup.port());
  const auto pre =
      client.roundtrip({"insert id=ok1 model=opt-125m-sim quant=int4"}, 1);
  ASSERT_TRUE(ok(pre[0])) << pre[0];

  const auto boom =
      client.roundtrip({"extract id=boom model=opt-125m-sim quant=int4"}, 1);
  EXPECT_TRUE(retryable(boom[0])) << boom[0];
  EXPECT_NE(boom[0].find("\"id\":\"boom\""), std::string::npos) << boom[0];

  // The retryable response (from the link EOF) can beat the reap that
  // the worker's pidfd triggers, so wait for the respawn itself (counter
  // bumps at the new spawn), then for the fresh worker to come up.
  ASSERT_TRUE(wait_for(
      [&] { return rs.sup.worker_respawns(0) >= 1 && rs.sup.worker_ready(0); },
      30000));
  const auto post =
      client.roundtrip({"insert id=ok2 model=opt-125m-sim quant=int4"}, 1);
  EXPECT_TRUE(ok(post[0])) << post[0];
}

}  // namespace
}  // namespace emmark

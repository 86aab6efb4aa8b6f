// Socket serving front-end: SocketServer/Conn over the RequestRouter core,
// driven through the LineClient loopback helper. The wire protocol under
// test is the one specified in docs/PROTOCOL.md -- shared verbatim with the
// stdio daemon, which the byte-identity test pins: one request script must
// produce the same response bytes over both transports. Also covers
// concurrent connections, per-connection response ordering and in-flight
// bounds, per-shard store/engine stats, and graceful shutdown with
// requests still in flight.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/daemon.h"
#include "net/client.h"
#include "net/server.h"
#include "util/threadpool.h"

namespace emmark {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = (std::filesystem::temp_directory_path() / "emmark_server_test").string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  static void TearDownTestSuite() { std::filesystem::remove_all(dir_); }

  static RouterConfig config(size_t shards = 2) {
    RouterConfig c;
    c.cache_dir = dir_ + "/cache";
    c.train_steps_cap = 25;
    c.store_capacity = 2;
    c.shards = shards;
    return c;
  }

  static std::string path(const std::string& name) { return dir_ + "/" + name; }

  static bool ok(const std::string& line) {
    return line.find("\"ok\":true") != std::string::npos;
  }
  static bool has_id(const std::string& line, const std::string& id) {
    return line.find("\"id\":\"" + id + "\"") != std::string::npos;
  }

  static std::string dir_;
};

std::string ServerTest::dir_;

/// A router + server + its run() thread, torn down gracefully.
struct RunningServer {
  explicit RunningServer(const RouterConfig& rc, ServerConfig sc = {})
      : router(rc), server(router, sc), thread([this] { server.run(); }) {}
  ~RunningServer() { stop(); }
  void stop() {
    server.request_stop();
    if (thread.joinable()) thread.join();
  }

  RequestRouter router;
  SocketServer server;
  std::thread thread;
};

TEST_F(ServerTest, ResponsesAreByteIdenticalToTheStdioDaemon) {
  // One request script, two transports, same RouterConfig: the socket
  // server must reproduce the stdio daemon's output byte for byte
  // (docs/PROTOCOL.md makes the transports interchangeable).
  const std::vector<std::string> script = {
      "insert id=a model=opt-125m-sim quant=int4 scheme=emmark bits=8 record=" +
          path("wm.rec") + " codes=" + path("dep.codes") + " evidence=" +
          path("wm.evid") + " owner=acme",
      "extract id=b model=opt-125m-sim quant=int4 record=" + path("wm.rec") +
          " codes=" + path("dep.codes"),
      "verify id=c model=opt-125m-sim quant=int4 evidence=" + path("wm.evid") +
          " codes=" + path("dep.codes"),
      "stats id=s",
      "quit",
  };

  // Stdio daemon pass (fresh router inside run_daemon).
  std::vector<std::string> daemon_lines;
  {
    std::string joined;
    for (const std::string& line : script) joined += line + "\n";
    std::istringstream in(joined);
    std::ostringstream out;
    ASSERT_EQ(run_daemon(in, out, config()), 0);
    std::istringstream split(out.str());
    std::string line;
    while (std::getline(split, line)) daemon_lines.push_back(line);
  }

  // Socket pass (fresh router in the server, so counters start equal).
  RunningServer rs(config());
  LineClient client("127.0.0.1", rs.server.port());
  const std::vector<std::string> socket_lines = client.roundtrip(script, 5);

  EXPECT_EQ(socket_lines, daemon_lines);
  for (const std::string& line : socket_lines) EXPECT_TRUE(ok(line)) << line;
}

TEST_F(ServerTest, ConcurrentConnectionsKeepPerConnectionOrdering) {
  RunningServer rs(config());
  constexpr int kClients = 3;
  constexpr int kRequests = 4;

  std::vector<std::vector<std::string>> responses(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      LineClient client("127.0.0.1", rs.server.port());
      std::vector<std::string> script;
      for (int r = 0; r < kRequests; ++r) {
        script.push_back("insert id=c" + std::to_string(c) + "-" +
                         std::to_string(r) +
                         " model=opt-125m-sim quant=int4 seed-from-id=1");
      }
      responses[c] = client.roundtrip(script, kRequests);
    });
  }
  for (auto& t : clients) t.join();

  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(responses[c].size(), static_cast<size_t>(kRequests));
    for (int r = 0; r < kRequests; ++r) {
      // Strict request order per connection, every slot served.
      EXPECT_TRUE(has_id(responses[c][r],
                         "c" + std::to_string(c) + "-" + std::to_string(r)))
          << responses[c][r];
      EXPECT_TRUE(ok(responses[c][r])) << responses[c][r];
    }
  }
}

TEST_F(ServerTest, InflightBoundStillServesPipelinedBursts) {
  // A client that pipelines far past the per-connection bound is throttled
  // by paused reads, never dropped: all responses arrive, in order.
  ServerConfig sc;
  sc.max_inflight_per_conn = 2;
  RunningServer rs(config(), sc);
  LineClient client("127.0.0.1", rs.server.port());

  std::vector<std::string> script;
  for (int r = 0; r < 10; ++r) {
    script.push_back("insert id=burst-" + std::to_string(r) +
                     " model=opt-125m-sim quant=int4 seed-from-id=1");
  }
  const std::vector<std::string> lines = client.roundtrip(script, script.size());
  for (size_t r = 0; r < lines.size(); ++r) {
    EXPECT_TRUE(has_id(lines[r], "burst-" + std::to_string(r))) << lines[r];
    EXPECT_TRUE(ok(lines[r])) << lines[r];
  }
}

TEST_F(ServerTest, SpecsOnDifferentShardsBuildIndependently) {
  // Two specs whose keys consistent-hash to different shards must cost one
  // build in each shard's own store -- the sharding acceptance shape.
  const ShardRouter ring(2);
  auto key_of = [](const std::string& model) {
    ModelSpec spec;
    spec.model = model;
    spec.method = QuantMethod::kAwqInt4;
    spec.train_steps_cap = 25;
    return spec.key();
  };
  const std::vector<std::string> candidates = {
      "opt-125m-sim", "opt-1.3b-sim", "opt-2.7b-sim", "llama2-7b-sim"};
  std::string model_a = candidates[0];
  std::string model_b;
  for (size_t i = 1; i < candidates.size() && model_b.empty(); ++i) {
    if (ring.shard_for(key_of(candidates[i])) !=
        ring.shard_for(key_of(model_a))) {
      model_b = candidates[i];
    }
  }
  ASSERT_FALSE(model_b.empty())
      << "all candidate specs hashed to one shard; ring is degenerate";

  RunningServer rs(config());
  LineClient client("127.0.0.1", rs.server.port());
  const std::vector<std::string> lines = client.roundtrip(
      {
          "insert id=a model=" + model_a + " quant=int4",
          "insert id=b model=" + model_b + " quant=int4",
          "stats id=s",
      },
      3);
  EXPECT_TRUE(ok(lines[0])) << lines[0];
  EXPECT_TRUE(ok(lines[1])) << lines[1];

  const std::string& stats = lines[2];
  // Aggregate: two builds total...
  EXPECT_NE(stats.find("\"builds\":2"), std::string::npos) << stats;
  // ...and per shard: one build (and one engine submission) each.
  const size_t shards_at = stats.find("\"shards\":[");
  ASSERT_NE(shards_at, std::string::npos) << stats;
  const std::string per_shard = stats.substr(shards_at);
  size_t one_build_shards = 0;
  for (size_t pos = per_shard.find("\"builds\":1"); pos != std::string::npos;
       pos = per_shard.find("\"builds\":1", pos + 1)) {
    ++one_build_shards;
  }
  EXPECT_EQ(one_build_shards, 2u) << per_shard;
  size_t one_submit_shards = 0;
  for (size_t pos = per_shard.find("\"submitted\":1"); pos != std::string::npos;
       pos = per_shard.find("\"submitted\":1", pos + 1)) {
    ++one_submit_shards;
  }
  EXPECT_EQ(one_submit_shards, 2u) << per_shard;
}

TEST_F(ServerTest, QuitClosesOnlyThatConnection) {
  RunningServer rs(config());
  LineClient quitter("127.0.0.1", rs.server.port());
  LineClient stayer("127.0.0.1", rs.server.port());

  const std::vector<std::string> quit_lines = quitter.roundtrip({"quit"}, 1);
  EXPECT_NE(quit_lines[0].find("\"cmd\":\"quit\""), std::string::npos);
  std::string eof_probe;
  EXPECT_FALSE(quitter.recv_line(eof_probe));  // connection closed after quit

  // The server keeps serving the other connection.
  const std::vector<std::string> lines = stayer.roundtrip(
      {"insert id=alive model=opt-125m-sim quant=int4"}, 1);
  EXPECT_TRUE(ok(lines[0])) << lines[0];
}

TEST_F(ServerTest, GracefulShutdownServesThrottledBacklog) {
  // Requests pipelined past the in-flight bound are throttled, not
  // dropped -- including across a graceful shutdown: the settle/feed loop
  // in Conn::finish must serve the whole backlog before closing.
  ServerConfig sc;
  sc.max_inflight_per_conn = 2;
  RunningServer rs(config(), sc);
  LineClient client("127.0.0.1", rs.server.port());
  constexpr int kBacklog = 8;
  for (int r = 0; r < kBacklog; ++r) {
    client.send_line("insert id=bk-" + std::to_string(r) +
                     " model=opt-125m-sim quant=int4 seed-from-id=1");
  }
  std::string line;
  ASSERT_TRUE(client.recv_line(line));  // server picked the burst up
  EXPECT_TRUE(has_id(line, "bk-0")) << line;

  rs.stop();

  for (int r = 1; r < kBacklog; ++r) {
    ASSERT_TRUE(client.recv_line(line)) << "lost response " << r;
    EXPECT_TRUE(has_id(line, "bk-" + std::to_string(r))) << line;
    EXPECT_TRUE(ok(line)) << line;
  }
  EXPECT_FALSE(client.recv_line(line));  // then EOF
}

TEST_F(ServerTest, ColdSpecOnOneConnectionDoesNotDelayWarmTraffic) {
  // The lazy-pipeline acceptance shape: with a cold spec in flight on
  // connection A, a warm request on connection B completes without
  // waiting for A's model build. A fresh cache dir guarantees the big
  // spec is genuinely cold.
  //
  // The engines bind ThreadPool::active() at construction -- on this
  // thread, so the override pool below -- while ModelStore::get_async
  // posts its cold build from the server's poll thread, which has no
  // override and lands on the shared pool. The warm insert's engine work
  // therefore cannot queue behind the cold build even on a single-core
  // host: the two run on disjoint pools, and the ordering assertion is
  // deterministic (a cached insert against a full cold model build).
  ThreadPool pool(2);
  ThreadPool::ScopedOverride override_pool(pool);

  RouterConfig rc = config();
  rc.cache_dir = dir_ + "/cache_fair";
  RunningServer rs(rc);

  LineClient warmup("127.0.0.1", rs.server.port());
  const auto w =
      warmup.roundtrip({"insert id=w model=opt-125m-sim quant=int4"}, 1);
  ASSERT_TRUE(ok(w[0])) << w[0];

  LineClient cold("127.0.0.1", rs.server.port());
  LineClient warm("127.0.0.1", rs.server.port());
  // The extract's artifacts do not exist: it still pays for the full
  // cold build (ModelStore::get_async starts it at parse time) before
  // failing in its lazy sources factory -- exactly the slow-path shape
  // needed here, without having to mint artifacts for the big model
  // first.
  cold.send_line("extract id=cold model=opt-1.3b-sim quant=int4 codes=" +
                 path("fair_none.codes") +
                 " record=" + path("fair_none.rec"));
  // Give the event loop a cycle to read the line and start the build.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::atomic<int> order{0};
  int cold_at = 0;
  std::thread cold_reader([&] {
    std::string line;
    if (cold.recv_line(line)) {
      EXPECT_TRUE(has_id(line, "cold")) << line;
      EXPECT_FALSE(ok(line)) << line;  // missing artifacts, by design
    } else {
      ADD_FAILURE() << "cold connection closed without a response";
    }
    cold_at = ++order;
  });
  const auto lines =
      warm.roundtrip({"insert id=hot model=opt-125m-sim quant=int4"}, 1);
  const int warm_at = ++order;
  EXPECT_TRUE(ok(lines[0])) << lines[0];
  cold_reader.join();
  EXPECT_LT(warm_at, cold_at)
      << "warm request waited behind another connection's cold build";
}

TEST_F(ServerTest, StatsDoesNotWaitForOtherSessionsWork) {
  // `stats` reports a live snapshot: it settles only its own session's
  // earlier slots (by flushing after them) and never drains the router,
  // so a probe connection gets its answer while another connection's
  // cold request is still in flight.
  RouterConfig rc = config();
  rc.cache_dir = dir_ + "/cache_stats";
  RunningServer rs(rc);

  LineClient busy("127.0.0.1", rs.server.port());
  LineClient probe("127.0.0.1", rs.server.port());
  busy.send_line("insert id=slow model=opt-1.3b-sim quant=int4");  // cold
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::atomic<int> order{0};
  int busy_at = 0;
  std::thread busy_reader([&] {
    std::string line;
    if (busy.recv_line(line)) {
      EXPECT_TRUE(has_id(line, "slow")) << line;
      EXPECT_TRUE(ok(line)) << line;
    } else {
      ADD_FAILURE() << "busy connection closed without a response";
    }
    busy_at = ++order;
  });
  const auto stats = probe.roundtrip({"stats id=p"}, 1);
  const int probe_at = ++order;
  EXPECT_TRUE(ok(stats[0])) << stats[0];
  busy_reader.join();
  EXPECT_LT(probe_at, busy_at)
      << "stats drained another session's in-flight work";
}

TEST_F(ServerTest, ParkedShardNeverBlocksAnotherConnection) {
  // A burst into a shard whose pool is parked waits in the pool's queue,
  // never in a blocked loop: a second connection is answered while the
  // burst is stuck, and the burst still comes back complete and in order.
  // The shard's engine runs on a one-thread pool that the test parks
  // behind a gate until the probe is answered, so the burst outlasts the
  // probe by construction rather than by timing.
  ThreadPool engine_pool(1);
  ThreadPool::ScopedOverride over(engine_pool);  // bound by the engine
  RunningServer rs(config(/*shards=*/1));

  LineClient warmup("127.0.0.1", rs.server.port());
  const auto w =
      warmup.roundtrip({"insert id=w model=opt-125m-sim quant=int4"}, 1);
  ASSERT_TRUE(ok(w[0])) << w[0];

  // Park the pool's thread; once the gate task runs, the warmup's engine
  // task has returned, so no burst request can start before release.
  std::promise<void> parked;
  std::promise<void> gate;
  engine_pool.post([&parked, opened = gate.get_future().share()] {
    parked.set_value();
    opened.wait();
  });
  parked.get_future().wait();
  // Declared after rs: opens the gate on every exit path, before the
  // engine's shutdown waits for its queued tasks.
  struct Release {
    std::promise<void>& gate;
    bool opened = false;
    void open() {
      if (!opened) gate.set_value();
      opened = true;
    }
    ~Release() { open(); }
  } release{gate};

  LineClient bursty("127.0.0.1", rs.server.port());
  LineClient probe("127.0.0.1", rs.server.port());
  constexpr int kBurst = 48;
  for (int r = 0; r < kBurst; ++r) {
    bursty.send_line("insert id=q-" + std::to_string(r) +
                     " model=opt-125m-sim quant=int4 seed-from-id=1");
  }
  // Let the server read the burst: it waits in the pool's queue behind
  // the gate.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::atomic<int> order{0};
  int burst_done_at = 0;
  std::thread burst_reader([&] {
    std::string line;
    for (int r = 0; r < kBurst; ++r) {
      if (!bursty.recv_line(line)) {
        ADD_FAILURE() << "lost burst response " << r;
        break;
      }
      EXPECT_TRUE(has_id(line, "q-" + std::to_string(r))) << line;
      EXPECT_TRUE(ok(line)) << line;
    }
    burst_done_at = ++order;
  });
  const auto stats = probe.roundtrip({"stats id=p"}, 1);
  const int probe_at = ++order;
  EXPECT_TRUE(ok(stats[0])) << stats[0];
  release.open();
  burst_reader.join();
  EXPECT_LT(probe_at, burst_done_at)
      << "a parked shard on one connection stalled another connection";
}

/// Pass count of the server's event loop, read through a `metrics` scrape
/// on `client` (the histogram's _count line).
long long loop_passes(LineClient& client) {
  client.send_line("metrics");
  const std::string prefix = "emmark_server_poll_cycle_seconds_count ";
  for (const std::string& line : client.recv_until("# EOF")) {
    if (line.rfind(prefix, 0) == 0) return std::stoll(line.substr(prefix.size()));
  }
  ADD_FAILURE() << "no " << prefix << "line in the scrape";
  return -1;
}

TEST_F(ServerTest, IdleLoopSleepsUntilWoken) {
  // With no traffic and no --store-ttl the loop has no deadline: it sleeps
  // until a socket or a completion wakes it, so the pass count holds still.
  RunningServer rs(config(/*shards=*/1));
  LineClient client("127.0.0.1", rs.server.port());
  const auto warm =
      client.roundtrip({"insert id=w model=opt-125m-sim quant=int4"}, 1);
  ASSERT_TRUE(ok(warm[0])) << warm[0];

  const long long before = loop_passes(client);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const long long after = loop_passes(client);
  // Only the scrapes' own passes count: the one that rendered `before` is
  // recorded after it, and a line or response split across reads or
  // writes adds one. A 20 ms tick would add ~15.
  EXPECT_LE(after - before, 3) << before << " -> " << after;
}

TEST_F(ServerTest, StoreTtlSweepRunsWithoutTraffic) {
  // The idle-TTL expiry is the loop's one deadline: an idle entry is
  // evicted on time even though no request arrives to drive a pass.
  RouterConfig rc = config(/*shards=*/1);
  rc.store_ttl_sec = 0.1;
  RunningServer rs(rc);
  LineClient client("127.0.0.1", rs.server.port());
  const auto warm =
      client.roundtrip({"insert id=w model=opt-125m-sim quant=int4"}, 1);
  ASSERT_TRUE(ok(warm[0])) << warm[0];
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  // `stats` renders before its own pass sweeps, so the eviction must
  // already have happened on the TTL deadline.
  const auto stats = client.roundtrip({"stats id=s"}, 1);
  EXPECT_NE(stats[0].find("\"evictions\":1"), std::string::npos) << stats[0];
  EXPECT_NE(stats[0].find("\"resident\":0"), std::string::npos) << stats[0];
}

TEST_F(ServerTest, MetricsScrapeDoesNotBlockOtherConnections) {
  // `metrics` is a live scrape, same contract as `stats`: a probe
  // connection gets the full exposition (terminated by "# EOF") while
  // another connection's cold build is still in flight.
  RouterConfig rc = config();
  rc.cache_dir = dir_ + "/cache_metrics";
  RunningServer rs(rc);

  LineClient busy("127.0.0.1", rs.server.port());
  LineClient probe("127.0.0.1", rs.server.port());
  busy.send_line("insert id=slow model=opt-1.3b-sim quant=int4");  // cold
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::atomic<int> order{0};
  int busy_at = 0;
  std::thread busy_reader([&] {
    std::string line;
    if (busy.recv_line(line)) {
      EXPECT_TRUE(has_id(line, "slow")) << line;
      EXPECT_TRUE(ok(line)) << line;
    } else {
      ADD_FAILURE() << "busy connection closed without a response";
    }
    busy_at = ++order;
  });
  probe.send_line("metrics");
  const std::vector<std::string> scrape = probe.recv_until("# EOF");
  const int probe_at = ++order;
  busy_reader.join();
  EXPECT_LT(probe_at, busy_at)
      << "metrics drained another session's in-flight work";

  // The exposition carries every layer's families: request lifecycle,
  // engine, store, and the socket server's own series.
  std::string joined;
  for (const std::string& line : scrape) joined += line + "\n";
  EXPECT_NE(joined.find("# TYPE emmark_request_latency_seconds histogram"),
            std::string::npos)
      << joined;
  EXPECT_NE(joined.find("emmark_engine_queue_depth{shard=\"0\"}"),
            std::string::npos)
      << joined;
  EXPECT_NE(joined.find("# TYPE emmark_engine_queue_wait_seconds histogram"),
            std::string::npos)
      << joined;
  EXPECT_NE(joined.find("emmark_store_resident_bytes"), std::string::npos)
      << joined;
  EXPECT_NE(joined.find("emmark_server_connections 2"), std::string::npos)
      << joined;
  EXPECT_EQ(scrape.back(), "# EOF");
}

TEST_F(ServerTest, OverloadBoundShedsColdBurstWithoutTouchingWarmTraffic) {
  // Admission control: with --max-queued 3, a burst of cold requests fills
  // the cold shard's deferred slots; the next request homed there is
  // fast-failed with a structured overload error ("shed":true) while warm
  // traffic homed on the other shard proceeds untouched, and the shed is
  // visible in `metrics`.
  RouterConfig rc = config(/*shards=*/2);
  rc.cache_dir = dir_ + "/cache_shed";
  rc.max_queued = 3;
  RunningServer rs(rc);

  // Pick a warm model homed on a different shard than the cold spec, so
  // the per-shard bound demonstrably does not leak across shards.
  const auto shard_of = [&](const std::string& model) {
    ModelSpec spec;
    spec.model = model;
    spec.method = QuantMethod::kAwqInt4;
    spec.train_steps_cap = rc.train_steps_cap;
    return rs.router.shard_for(spec);
  };
  const size_t cold_shard = shard_of("opt-1.3b-sim");
  std::string warm_model;
  for (const char* candidate :
       {"opt-125m-sim", "opt-2.7b-sim", "llama2-7b-sim"}) {
    if (shard_of(candidate) != cold_shard) {
      warm_model = candidate;
      break;
    }
  }
  ASSERT_FALSE(warm_model.empty()) << "no candidate landed off the cold shard";

  LineClient warmup("127.0.0.1", rs.server.port());
  const auto w =
      warmup.roundtrip({"insert id=w model=" + warm_model + " quant=int4"}, 1);
  ASSERT_TRUE(ok(w[0])) << w[0];

  // Three cold extracts park as deferred slots on the cold shard (build
  // future unresolved), filling the bound without completing anything.
  LineClient bursty("127.0.0.1", rs.server.port());
  for (int r = 0; r < 3; ++r) {
    bursty.send_line("extract id=c-" + std::to_string(r) +
                     " model=opt-1.3b-sim quant=int4 codes=" +
                     path("shed_none.codes") + " record=" +
                     path("shed_none.rec"));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Over the bound: deterministic fast-fail, well-formed, marked shed.
  LineClient shed("127.0.0.1", rs.server.port());
  const auto s = shed.roundtrip(
      {"extract id=over model=opt-1.3b-sim quant=int4 codes=" +
       path("shed_none.codes") + " record=" + path("shed_none.rec")},
      1);
  EXPECT_TRUE(has_id(s[0], "over")) << s[0];
  EXPECT_FALSE(ok(s[0])) << s[0];
  EXPECT_NE(s[0].find("\"shed\":true"), std::string::npos) << s[0];
  EXPECT_NE(s[0].find("overloaded: shard"), std::string::npos) << s[0];

  // Warm traffic homed on the other shard is not shed while the cold
  // shard is saturated.
  const auto hot = shed.roundtrip(
      {"insert id=hot model=" + warm_model + " quant=int4"}, 1);
  EXPECT_TRUE(ok(hot[0])) << hot[0];

  // The shed counter in the exposition matches: exactly one shed, on the
  // cold shard.
  shed.send_line("metrics");
  const std::vector<std::string> scrape = shed.recv_until("# EOF");
  std::string joined;
  for (const std::string& line : scrape) joined += line + "\n";
  EXPECT_NE(joined.find("emmark_requests_shed_total{shard=\"" +
                        std::to_string(cold_shard) + "\"} 1"),
            std::string::npos)
      << joined;

  // The parked burst still completes its pipeline (failing on the missing
  // artifacts, not on admission) once the build lands.
  std::string line;
  for (int r = 0; r < 3; ++r) {
    ASSERT_TRUE(bursty.recv_line(line));
    EXPECT_TRUE(has_id(line, "c-" + std::to_string(r))) << line;
    EXPECT_FALSE(ok(line)) << line;
    EXPECT_EQ(line.find("\"shed\":true"), std::string::npos) << line;
  }
}

TEST_F(ServerTest, GracefulShutdownSkipsResetPeers) {
  // A peer that vanished with a TCP reset must not be settled at
  // shutdown: on_readable() reports it dead and the server skips it,
  // while live connections still get their in-flight responses flushed.
  RunningServer rs(config());
  LineClient resetter("127.0.0.1", rs.server.port());
  LineClient stayer("127.0.0.1", rs.server.port());
  resetter.send_line("insert id=gone model=opt-125m-sim quant=int4");
  stayer.send_line("insert id=kept model=opt-125m-sim quant=int4");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // both read

  rs.server.request_stop();
  resetter.reset();  // RST races the shutdown settle; both orders must work
  rs.stop();         // join: must not hang on the dead peer

  std::string line;
  ASSERT_TRUE(stayer.recv_line(line));
  EXPECT_TRUE(has_id(line, "kept")) << line;
  EXPECT_TRUE(ok(line)) << line;
  EXPECT_FALSE(stayer.recv_line(line));  // then an orderly close
}

TEST_F(ServerTest, GracefulShutdownFlushesInflightRequests) {
  RunningServer rs(config());
  LineClient client("127.0.0.1", rs.server.port());
  for (int r = 0; r < 3; ++r) {
    client.send_line("insert id=fly-" + std::to_string(r) +
                     " model=opt-125m-sim quant=int4 seed-from-id=1");
  }
  // First response proves the server picked the burst up; the rest are
  // still in flight when the stop lands.
  std::string line;
  ASSERT_TRUE(client.recv_line(line));
  EXPECT_TRUE(has_id(line, "fly-0")) << line;

  rs.stop();  // request_stop + join: settles sessions, flushes, closes

  // In-flight responses were flushed before the close, in order.
  ASSERT_TRUE(client.recv_line(line));
  EXPECT_TRUE(has_id(line, "fly-1")) << line;
  EXPECT_TRUE(ok(line)) << line;
  ASSERT_TRUE(client.recv_line(line));
  EXPECT_TRUE(has_id(line, "fly-2")) << line;
  EXPECT_TRUE(ok(line)) << line;
  EXPECT_FALSE(client.recv_line(line));  // then EOF
}

}  // namespace
}  // namespace emmark

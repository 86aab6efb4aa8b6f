// Daemon mode: the run_daemon() loop over in-memory streams, i.e. the
// stdio transport of the wire protocol specified in docs/PROTOCOL.md (the
// socket transport is covered by tests/test_server.cpp, including byte-
// identity between the two). Pins the acceptance shape -- N requests
// against one zoo model cost exactly one model build (store hit counters
// in the stats JSON) -- plus per-request error isolation, output ordering,
// and the line protocol's edges.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "cli/daemon.h"
#include "model_zoo/zoo.h"

namespace emmark {
namespace {

class DaemonTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = (std::filesystem::temp_directory_path() / "emmark_daemon_test").string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  static void TearDownTestSuite() { std::filesystem::remove_all(dir_); }

  static DaemonConfig config() {
    DaemonConfig c;
    c.cache_dir = dir_ + "/cache";
    c.train_steps_cap = 25;
    c.store_capacity = 2;
    return c;
  }

  static std::string path(const std::string& name) { return dir_ + "/" + name; }

  static std::vector<std::string> run(const std::string& script,
                                      const DaemonConfig& daemon = config()) {
    std::istringstream in(script);
    std::ostringstream out;
    EXPECT_EQ(run_daemon(in, out, daemon), 0);
    std::vector<std::string> lines;
    std::istringstream split(out.str());
    std::string line;
    while (std::getline(split, line)) lines.push_back(line);
    return lines;
  }

  static std::string dir_;
};

std::string DaemonTest::dir_;

TEST_F(DaemonTest, SessionCostsExactlyOneModelBuild) {
  // The acceptance criterion: >= 3 sequential requests against the same
  // zoo model, exactly one build, proven by the stats JSON.
  const std::vector<std::string> lines = run(
      "# transcript: insert once, extract twice, audit the cost\n"
      "insert id=a model=opt-125m-sim quant=int4 scheme=emmark bits=8 "
      "record=" + path("wm.rec") + " codes=" + path("dep.codes") + "\n"
      "extract id=b model=opt-125m-sim quant=int4 record=" + path("wm.rec") +
      " codes=" + path("dep.codes") + "\n"
      "extract id=c model=opt-125m-sim quant=int4 record=" + path("wm.rec") +
      " codes=" + path("dep.codes") + "\n"
      "stats id=s\n"
      "quit\n");

  ASSERT_EQ(lines.size(), 5u);  // a, b, c, stats, quit -- in request order
  EXPECT_NE(lines[0].find("\"id\":\"a\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"cmd\":\"insert\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
  for (size_t i : {size_t{1}, size_t{2}}) {
    EXPECT_NE(lines[i].find("\"cmd\":\"extract\""), std::string::npos);
    EXPECT_NE(lines[i].find("\"ok\":true"), std::string::npos);
    EXPECT_NE(lines[i].find("\"wer_pct\":100"), std::string::npos) << lines[i];
  }
  EXPECT_NE(lines[1].find("\"id\":\"b\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"id\":\"c\""), std::string::npos);

  // One build, two (or more) hits: the whole session reused one model.
  const std::string& stats = lines[3];
  EXPECT_NE(stats.find("\"cmd\":\"stats\""), std::string::npos);
  EXPECT_NE(stats.find("\"builds\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"misses\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"hits\":2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"failed\":0"), std::string::npos) << stats;

  EXPECT_NE(lines[4].find("\"cmd\":\"quit\""), std::string::npos);
  EXPECT_NE(lines[4].find("\"served\":3"), std::string::npos);
}

TEST_F(DaemonTest, RequestFailuresAreIsolatedAndOrdered) {
  const std::vector<std::string> lines = run(
      "insert id=good model=opt-125m-sim quant=int4 codes=" + path("g.codes") + "\n"
      "insert id=bad model=opt-125m-sim quant=int4 scheme=no-such-scheme\n"
      "extract id=missing model=opt-125m-sim quant=int4 record=" +
      path("nope.rec") + " codes=" + path("g.codes") + "\n"
      "frobnicate id=unknown\n"
      "insert id=tail model=opt-125m-sim quant=int4\n"
      "stats id=s\n");

  ASSERT_EQ(lines.size(), 6u);
  EXPECT_NE(lines[0].find("\"id\":\"good\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);

  // Unknown scheme fails in its own slot, after submission.
  EXPECT_NE(lines[1].find("\"id\":\"bad\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[1].find("no-such-scheme"), std::string::npos);

  // Missing artifact fails at submission; still one ordered JSON line.
  EXPECT_NE(lines[2].find("\"id\":\"missing\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"ok\":false"), std::string::npos);

  // Unknown commands report instead of killing the session.
  EXPECT_NE(lines[3].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[3].find("unknown command"), std::string::npos);

  // The daemon survives everything above and keeps serving.
  EXPECT_NE(lines[4].find("\"id\":\"tail\""), std::string::npos);
  EXPECT_NE(lines[4].find("\"ok\":true"), std::string::npos);

  // Store cost is still one build (same spec throughout; failures that
  // reached the store count as hits, not rebuilds).
  EXPECT_NE(lines[5].find("\"builds\":1"), std::string::npos) << lines[5];
}

TEST_F(DaemonTest, SeedFromIdGivesDistinctPlacementsPerRequest) {
  const std::vector<std::string> lines = run(
      "insert id=dev-0 model=opt-125m-sim quant=int4 seed-from-id=1 codes=" +
      path("d0.codes") + "\n"
      "insert id=dev-1 model=opt-125m-sim quant=int4 seed-from-id=1 codes=" +
      path("d1.codes") + "\n");
  ASSERT_EQ(lines.size(), 2u);
  for (const auto& line : lines) {
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  }
  // Distinct derived seeds are reported back (and imply distinct stamps).
  const auto seed_of = [](const std::string& line) {
    const auto pos = line.find("\"seed\":");
    return line.substr(pos, line.find(',', pos) - pos);
  };
  EXPECT_NE(seed_of(lines[0]), seed_of(lines[1]));
}

TEST_F(DaemonTest, MalformedNumericParametersAreRejected) {
  // std::stoll/std::stod stop at the first non-numeric character, so
  // without a full-consumption check "bits=8x" would silently parse as 8
  // and mint a watermark the operator did not ask for. Every partially
  // numeric value must be a per-request error instead.
  const std::vector<std::string> lines = run(
      "insert id=m1 model=opt-125m-sim quant=int4 bits=8x\n"
      "insert id=m2 model=opt-125m-sim quant=int4 seed=12.5\n"
      "trace id=m3 model=opt-125m-sim quant=int4 codes=" + path("none.codes") +
      " set=" + path("none.set") + " min-wer=9o\n"
      "insert id=tail model=opt-125m-sim quant=int4 bits=8\n");

  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[0].find("\"id\":\"m1\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"ok\":false"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("expects an integer"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("8x"), std::string::npos) << lines[0];

  // An integer parameter must not quietly truncate a fractional value.
  EXPECT_NE(lines[1].find("\"id\":\"m2\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"ok\":false"), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("expects an integer"), std::string::npos) << lines[1];

  // Rejected at parse time: the trace never reaches the engine, so the
  // nonexistent artifact paths are never opened.
  EXPECT_NE(lines[2].find("\"id\":\"m3\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"ok\":false"), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find("expects a number"), std::string::npos) << lines[2];

  // Well-formed numerics on the same session still work.
  EXPECT_NE(lines[3].find("\"id\":\"tail\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"ok\":true"), std::string::npos) << lines[3];
}

TEST_F(DaemonTest, RejectedLinesNeverTouchTheStore) {
  // A line rejected at parse time -- a missing required parameter, or a
  // numeric that does not parse -- is answered before its model is looked
  // up: no store miss, no build on the pool, no eviction of a warm entry.
  const std::vector<std::string> lines = run(
      "extract id=r1 model=opt-125m-sim quant=int4 record=" + path("r.rec") + "\n"
      "insert id=r2 model=opt-1.3b-sim quant=int4 bits=banana\n"
      "trace id=r3 model=opt-2.7b-sim quant=int4 codes=" + path("r.codes") +
      " set=" + path("r.fps") + " min-wer=9o\n"
      "stats id=s\n");

  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[0].find("missing parameter: codes"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("expects an integer"), std::string::npos) << lines[1];
  EXPECT_NE(lines[2].find("expects a number"), std::string::npos) << lines[2];
  EXPECT_NE(lines[3].find("\"store\":{\"hits\":0,\"misses\":0,\"builds\":0,"
                          "\"evictions\":0,"),
            std::string::npos)
      << lines[3];
  EXPECT_NE(lines[3].find("\"submitted\":0,\"completed\":0,\"failed\":3"),
            std::string::npos)
      << lines[3];
}

TEST_F(DaemonTest, MetricsVerbExposesPrometheusTextOverStdio) {
  // `metrics` is the one multi-line response in the protocol: Prometheus
  // text exposition terminated by a "# EOF" line, available over the
  // stdio transport exactly like over sockets. After one insert the
  // per-verb latency histogram must hold that request.
  const std::vector<std::string> lines = run(
      "insert id=a model=opt-125m-sim quant=int4\n"
      "metrics\n"
      "quit\n");

  ASSERT_GE(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"id\":\"a\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(lines.back().find("\"cmd\":\"quit\""), std::string::npos);

  // Everything between the insert response and the quit line is the
  // exposition; its last line is the terminator.
  std::string exposition;
  for (size_t i = 1; i + 1 < lines.size(); ++i) exposition += lines[i] + "\n";
  EXPECT_EQ(lines[lines.size() - 2], "# EOF");
  EXPECT_NE(
      exposition.find("# TYPE emmark_request_latency_seconds histogram"),
      std::string::npos)
      << exposition;
  EXPECT_NE(exposition.find("emmark_request_latency_seconds_count{verb=\"insert"
                            "\",phase=\"total\"} 1"),
            std::string::npos)
      << exposition;
  EXPECT_NE(exposition.find("emmark_requests_total{verb=\"insert\"} 1"),
            std::string::npos)
      << exposition;
  EXPECT_NE(exposition.find("emmark_store_events_total{shard=\"0\",event=\""
                            "build\"} 1"),
            std::string::npos)
      << exposition;
  EXPECT_NE(exposition.find("emmark_metrics_scrapes_total 1"),
            std::string::npos)
      << exposition;
}

TEST_F(DaemonTest, StatsAndQuitLinesRoundTripThroughTheCodec) {
  // The supervisor merges its workers' `stats` and `quit` lines through
  // parse_stats/parse_quit, so reading a line the router rendered and
  // rendering it again must give back the same bytes.
  for (const size_t shards : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE(shards);
    DaemonConfig daemon = config();
    daemon.shards = shards;
    const std::vector<std::string> lines = run(
        "insert id=a model=opt-125m-sim quant=int4\n"
        "frobnicate id=b\n"
        "stats id=q\"uo\\te\n"
        "quit\n",
        daemon);
    ASSERT_EQ(lines.size(), 4u);

    const StatsReply stats = parse_stats(lines[2]);
    EXPECT_EQ(stats.id, "q\"uo\\te");
    EXPECT_EQ(stats.capacity, 2 * shards);
    EXPECT_EQ(stats.submitted, 1u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.failed, 1u);
    ASSERT_EQ(stats.shards.size(), shards);
    uint64_t builds = 0;
    for (size_t i = 0; i < shards; ++i) {
      EXPECT_EQ(stats.shards[i].shard, i);
      builds += stats.shards[i].store.builds;
    }
    EXPECT_EQ(builds, 1u);
    EXPECT_EQ(render_stats(stats), lines[2]);

    EXPECT_EQ(parse_quit(lines[3]), 1u);
    EXPECT_EQ(render_quit(parse_quit(lines[3])), lines[3]);
  }
}

TEST_F(DaemonTest, StatsAndQuitReadersRejectOtherLines) {
  const std::vector<std::string> lines = run(
      "insert id=a model=opt-125m-sim quant=int4\n"
      "stats id=s\n"
      "quit\n");
  ASSERT_EQ(lines.size(), 3u);
  const std::string& stats = lines[1];
  const std::string& quit = lines[2];
  ASSERT_NO_THROW(parse_stats(stats));
  ASSERT_NO_THROW(parse_quit(quit));

  auto without = [](std::string line, const std::string& field) {
    const size_t at = line.find(field);
    EXPECT_NE(at, std::string::npos) << field;
    return line.erase(at, field.size());
  };
  auto replaced = [](std::string line, const std::string& from, const std::string& to) {
    const size_t at = line.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return line.replace(at, from.size(), to);
  };
  for (const std::string& bad :
       {error_line("s", "stats", "no shard workers available; retry later", "retryable"),
        stats.substr(0, stats.size() - 3), stats.substr(0, stats.find("\"shards\"")),
        without(stats, ",\"evictions\":0"), replaced(stats, "\"misses\":1", "\"misses\":x"),
        replaced(stats, "\"builds\":1", "\"builds\":7"), std::string()}) {
    EXPECT_THROW(parse_stats(bad), std::invalid_argument) << bad;
  }
  for (const std::string& bad :
       {error_line("", "quit", "boom"), quit.substr(0, quit.size() - 1),
        without(quit, ",\"served\":1"), replaced(quit, "\"served\":1", "\"served\":x"),
        replaced(quit, "\"served\":1", "\"served\":-1"), std::string()}) {
    EXPECT_THROW(parse_quit(bad), std::invalid_argument) << bad;
  }
}

TEST_F(DaemonTest, VerifyAuditsEvidence) {
  // Verify runs through the engine like every other verb (the evidence
  // load and WER re-extraction happen on a worker); the response shape
  // and the in-order transcript are unchanged.
  const std::vector<std::string> lines = run(
      "insert id=a model=opt-125m-sim quant=int4 codes=" + path("v.codes") +
      " evidence=" + path("v.evid") + " owner=acme\n"
      "verify id=v model=opt-125m-sim quant=int4 evidence=" + path("v.evid") +
      " codes=" + path("v.codes") + " min-wer=90\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("\"cmd\":\"verify\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"verified\":true"), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("\"owner\":\"acme\""), std::string::npos);
}

}  // namespace
}  // namespace emmark

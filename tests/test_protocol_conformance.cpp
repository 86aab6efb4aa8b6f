// Protocol conformance: one table-driven corpus, three transports.
//
// docs/PROTOCOL.md defines a single wire contract served by the stdio
// daemon (`emmark_cli daemon`), the in-process socket server
// (`emmark_cli serve`), and the process-shard supervisor (`emmark_cli
// serve --process-shards`, workers spawned from the built CLI). Every
// corpus case runs against all three; the stdio daemon is the reference,
// and the other transports must reproduce its response bytes exactly --
// success shapes, every error shape (malformed token, unknown command,
// unknown model, bad quant spec, bad numeric, missing required
// parameter, and malformed `stats`/`metrics`/`quit` lines, which must not
// fan out), silent handling of blank/comment lines, and the quit line.
// The `metrics` scrape is checked for framing per transport (multi-line,
// `# EOF`-terminated) but not for byte identity: the supervisor's merged
// exposition legitimately adds its own fleet series. The corpus ends with
// an insert homed on shard 1 and a second `stats`, so the fleet's merged
// counters are compared with both workers non-zero. Those two rows are
// sent once every earlier response has arrived: `stats` is a live
// snapshot, and the first one (c4) would otherwise count the pipelined
// shard-1 insert in process but not in the fleet, where that insert
// reaches only worker 1, which answered its part of c4 at once.
//
// Auto-ids (`req-<n>`) are allocated per session, and behind the
// supervisor one client's lines are numbered by several worker sessions,
// each seeing only the lines routed to it (docs/PROTOCOL.md §8.4). A line
// whose tokens do not parse gets its session's auto-id and goes to shard
// 0, so its id matches the stdio daemon's only while every earlier line
// reached worker 0: every other corpus line carries an explicit id, and
// the rows that reach shard 1 alone come last.
//
// On any cross-transport mismatch the test writes an actual-vs-expected
// report to conformance_failures.txt in the working directory; CI uploads
// it as an artifact when this suite fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/daemon.h"
#include "model_zoo/zoo.h"
#include "net/client.h"
#include "net/server.h"
#include "net/supervisor.h"

namespace emmark {
namespace {

struct Case {
  const char* name;
  std::string line;
  bool expect_response;
  bool expect_ok;             // meaningful only when expect_response
  const char* expect_substr;  // must appear in the response; nullptr = none
  bool barrier = false;       // sent once every earlier response arrived
};

/// The stdio daemon's input. Before a barrier case it yields blank lines
/// -- no-ops on which the daemon flushes what is ready -- until `out` holds
/// every earlier response (or about 30 s passed).
class CorpusInput : public std::streambuf {
 public:
  CorpusInput(const std::vector<Case>& cases, const std::ostringstream& out)
      : cases_(cases), out_(out) {}

 protected:
  int_type underflow() override {
    const std::string written = out_.str();
    if (next_ < cases_.size() && cases_[next_].barrier && waits_ < 30000 &&
        static_cast<size_t>(std::count(written.begin(), written.end(), '\n')) < expected_) {
      ++waits_;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      text_ = "\n";
    } else if (next_ < cases_.size()) {
      expected_ += cases_[next_].expect_response ? 1 : 0;
      text_ = cases_[next_++].line + "\n";
    } else if (next_++ == cases_.size()) {
      text_ = "metrics id=mf\nquit\n";
    } else {
      return traits_type::eof();
    }
    setg(text_.data(), text_.data(), text_.data() + text_.size());
    return traits_type::to_int_type(text_[0]);
  }

 private:
  const std::vector<Case>& cases_;
  const std::ostringstream& out_;
  size_t next_ = 0, expected_ = 0, waits_ = 0;
  std::string text_;
};

class ProtocolConformanceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = (std::filesystem::temp_directory_path() / "emmark_conformance_test")
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  static void TearDownTestSuite() { std::filesystem::remove_all(dir_); }

  static std::string path(const std::string& name) { return dir_ + "/" + name; }

  /// A quant spec on the corpus model that the two-shard ring homes on
  /// shard 1, picked through the ring itself (the corpus spec, int4, is
  /// homed on shard 0).
  static std::string quant_on_shard1() {
    const ShardRouter ring(2);
    for (const char* q : {"gptq-int4", "rtn-int4", "int8", "rtn-int8"}) {
      ModelSpec spec;
      spec.method = parse_quant_spec(q, zoo_entry(spec.model).family);
      spec.train_steps_cap = router_config().train_steps_cap;
      if (ring.shard_for(spec.key()) == 1) return q;
    }
    ADD_FAILURE() << "every candidate quant homes on shard 0";
    return "int4";
  }

  /// Identical backend on every transport: fresh state per run (each
  /// transport constructs its own router / worker processes), shared
  /// on-disk zoo cache so only the first run pays for model builds.
  static RouterConfig router_config() {
    RouterConfig rc;
    rc.cache_dir = dir_ + "/cache";
    rc.train_steps_cap = 25;
    rc.store_capacity = 2;
    rc.shards = 2;
    return rc;
  }

  /// The corpus. Artifact paths are minted by the first insert, so the
  /// extract/verify cases are genuine successes; parse-error cases never
  /// open their paths (rejected before any work starts).
  static std::vector<Case> corpus() {
    const std::string spec = "model=opt-125m-sim quant=int4";
    const std::string rec = path("conf.rec");
    const std::string codes = path("conf.codes");
    const std::string evid = path("conf.evid");
    return {
        {"insert-ok",
         "insert id=c1 " + spec + " record=" + rec + " codes=" + codes +
             " evidence=" + evid + " owner=acme",
         true, true, "\"cmd\":\"insert\""},
        {"extract-ok",
         "extract id=c2 " + spec + " record=" + rec + " codes=" + codes, true,
         true, "wer_pct"},
        {"verify-ok",
         "verify id=c3 " + spec + " evidence=" + evid + " codes=" + codes,
         true, true, "\"cmd\":\"verify\""},
        {"stats-ok", "stats id=c4", true, true, "\"cmd\":\"stats\""},
        {"blank-line", "", false, false, nullptr},
        {"comment-line", "# comments draw no response", false, false, nullptr},
        {"malformed-token", "insert id=e1 bogus", true, false,
         "expected key=value, got: bogus"},
        {"unknown-command", "frobnicate id=e2", true, false,
         "unknown command: frobnicate"},
        {"unknown-model", "insert id=e3 model=nope-9b-sim", true, false,
         "unknown zoo model"},
        {"bad-quant", "insert id=e4 " + std::string("model=opt-125m-sim") +
                          " quant=float99",
         true, false, "unknown quant spec"},
        {"bad-numeric", "insert id=e5 " + spec + " bits=banana", true, false,
         "expects an integer"},
        {"missing-required", "extract id=e6 " + spec, true, false,
         "missing parameter: codes"},
        {"trace-missing-set", "trace id=e7 " + spec + " codes=" + codes, true,
         false, "missing parameter: set"},
        {"verify-missing-evidence", "verify id=e8 " + spec + " codes=" + codes,
         true, false, "missing parameter: evidence"},
        {"trace-bad-number",
         "trace id=e9 " + spec + " codes=" + codes + " set=" + path("conf.fps") +
             " min-wer=9o",
         true, false, "parameter min-wer expects a number, got: 9o"},
        {"insert-bad-flag", "insert id=e10 " + spec + " seed-from-id=yes", true,
         false, "parameter seed-from-id expects an integer, got: yes"},
        {"stats-malformed", "stats id=e11 bogus", true, false,
         "expected key=value, got: bogus"},
        {"metrics-malformed", "metrics id=e12 bogus", true, false,
         "expected key=value, got: bogus"},
        {"quit-malformed", "quit id=e13 bogus", true, false,
         "expected key=value, got: bogus"},
        // Last, and behind a barrier (see the file comment).
        {"insert-on-shard-1",
         "insert id=c5 model=opt-125m-sim quant=" + quant_on_shard1(), true, true,
         "\"cmd\":\"insert\"", /*barrier=*/true},
        {"stats-two-shards", "stats id=c6", true, true, "\"cmd\":\"stats\""},
    };
  }

  /// Everything one transport produced for the corpus run.
  struct TransportResult {
    std::string transport;
    std::vector<std::string> responses;  // per expect_response case, in order
    std::vector<std::string> metrics;    // scrape lines incl. "# EOF"
    std::string quit_line;
    bool clean_eof = false;
  };

  static size_t expected_responses(const std::vector<Case>& cases) {
    size_t n = 0;
    for (const auto& c : cases) n += c.expect_response ? 1 : 0;
    return n;
  }

  /// Drives the corpus + a metrics scrape + quit over an established
  /// LineClient (serves both socket transports).
  static TransportResult run_line_client(const std::string& transport,
                                         LineClient& client,
                                         const std::vector<Case>& cases) {
    TransportResult r;
    r.transport = transport;
    std::string line;
    auto receive = [&](size_t expected) {
      while (r.responses.size() < expected) {
        if (!client.recv_line(line)) {
          ADD_FAILURE() << transport << ": connection closed after "
                        << r.responses.size() << " of " << expected << " responses";
          return false;
        }
        r.responses.push_back(line);
      }
      return true;
    };
    size_t sent = 0;  // requests that draw a response
    for (const auto& c : cases) {
      if (c.barrier && !receive(sent)) return r;
      client.send_line(c.line);
      sent += c.expect_response ? 1 : 0;
    }
    if (!receive(sent)) return r;
    client.send_line("metrics id=mf");
    r.metrics = client.recv_until("# EOF");
    client.send_line("quit");
    if (client.recv_line(line)) r.quit_line = line;
    r.clean_eof = !client.recv_line(line);
    return r;
  }

  static TransportResult run_stdio(const std::vector<Case>& cases) {
    std::ostringstream out;
    CorpusInput input(cases, out);
    std::istream in(&input);
    EXPECT_EQ(run_daemon(in, out, router_config()), 0);

    std::vector<std::string> lines;
    {
      std::istringstream split(out.str());
      std::string line;
      while (std::getline(split, line)) lines.push_back(line);
    }
    TransportResult r;
    r.transport = "stdio-daemon";
    const size_t expected = expected_responses(cases);
    size_t i = 0;
    while (i < lines.size() && r.responses.size() < expected) {
      r.responses.push_back(lines[i++]);
    }
    while (i < lines.size()) {
      r.metrics.push_back(lines[i]);
      if (lines[i++] == "# EOF") break;
    }
    if (i < lines.size()) r.quit_line = lines[i++];
    r.clean_eof = i == lines.size();
    return r;
  }

  static bool wait_for(const std::function<bool()>& pred, int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
  }

  /// The corpus invariants, asserted on one transport's results.
  static void check_invariants(const std::vector<Case>& cases,
                               const TransportResult& r) {
    SCOPED_TRACE(r.transport);
    size_t slot = 0;
    for (const auto& c : cases) {
      if (!c.expect_response) continue;
      ASSERT_LT(slot, r.responses.size());
      const std::string& line = r.responses[slot++];
      SCOPED_TRACE(c.name);
      const bool got_ok = line.find("\"ok\":true") != std::string::npos;
      EXPECT_EQ(got_ok, c.expect_ok) << line;
      if (c.expect_substr != nullptr) {
        EXPECT_NE(line.find(c.expect_substr), std::string::npos) << line;
      }
    }
    // Blank and comment lines drew no response (the counts already prove
    // it: responses arrived in order and match their cases).
    EXPECT_EQ(slot, r.responses.size());
    // Metrics framing: multi-line, "# EOF"-terminated.
    ASSERT_FALSE(r.metrics.empty());
    EXPECT_EQ(r.metrics.back(), "# EOF");
    EXPECT_NE(r.metrics.front().find("# "), std::string::npos);
    // quit answered, then orderly EOF.
    EXPECT_NE(r.quit_line.find("\"cmd\":\"quit\",\"ok\":true"),
              std::string::npos)
        << r.quit_line;
    EXPECT_TRUE(r.clean_eof);
  }

  /// Cross-transport byte identity against the stdio reference; appends
  /// any mismatch to the report buffer.
  static void check_identity(const std::vector<Case>& cases,
                             const TransportResult& reference,
                             const TransportResult& actual,
                             std::string& report) {
    SCOPED_TRACE(actual.transport);
    size_t slot = 0;
    for (const auto& c : cases) {
      if (!c.expect_response) continue;
      const std::string& want = slot < reference.responses.size()
                                    ? reference.responses[slot]
                                    : "<missing>";
      const std::string& got = slot < actual.responses.size()
                                   ? actual.responses[slot]
                                   : "<missing>";
      ++slot;
      if (want != got) {
        EXPECT_EQ(got, want) << "case " << c.name;
        report += "transport: " + actual.transport + "\ncase: " + c.name +
                  "\nrequest:  " + c.line + "\nexpected: " + want +
                  "\nactual:   " + got + "\n\n";
      }
    }
    if (reference.quit_line != actual.quit_line) {
      EXPECT_EQ(actual.quit_line, reference.quit_line);
      report += "transport: " + actual.transport +
                "\ncase: quit\nexpected: " + reference.quit_line +
                "\nactual:   " + actual.quit_line + "\n\n";
    }
  }

  static std::string dir_;
};

std::string ProtocolConformanceTest::dir_;

TEST_F(ProtocolConformanceTest, OneCorpusThreeTransports) {
  const std::vector<Case> cases = corpus();

  // (a) stdio daemon: the reference bytes.
  const TransportResult stdio = run_stdio(cases);
  check_invariants(cases, stdio);
  // The last `stats` line counts work on both shards.
  ASSERT_FALSE(stdio.responses.empty());
  const StatsReply last = parse_stats(stdio.responses.back());
  ASSERT_EQ(last.shards.size(), 2u);
  for (const ShardSnapshot& shard : last.shards) EXPECT_GT(shard.engine.submitted, 0u);

  // (b) TCP socket server, in-process shards.
  TransportResult tcp;
  {
    RequestRouter router(router_config());
    SocketServer server(router, {});
    std::thread serving([&] { server.run(); });
    {
      LineClient client("127.0.0.1", server.port());
      tcp = run_line_client("tcp-server", client, cases);
    }
    server.request_stop();
    serving.join();
  }
  check_invariants(cases, tcp);

  // (c) Process-shard workers behind the supervisor.
  TransportResult procs;
  {
    SupervisorConfig sc;
    sc.worker_cmd = "./emmark_cli";
    sc.socket_dir = dir_ + "/sk_conf";
    std::filesystem::create_directories(sc.socket_dir);
    sc.router = router_config();
    Supervisor sup(std::move(sc));
    std::thread serving([&] { sup.run(); });
    const bool ready = wait_for(
        [&] {
          for (size_t i = 0; i < sup.workers(); ++i) {
            if (!sup.worker_ready(i)) return false;
          }
          return true;
        },
        30000);
    EXPECT_TRUE(ready) << "shard workers never came up";
    if (ready) {
      LineClient client("127.0.0.1", sup.port());
      procs = run_line_client("process-shards", client, cases);
    }
    sup.request_stop();
    serving.join();
  }
  check_invariants(cases, procs);

  // Byte identity across transports, with an actual-vs-expected report
  // for CI when anything diverges.
  std::string report;
  check_identity(cases, stdio, tcp, report);
  check_identity(cases, stdio, procs, report);
  if (!report.empty()) {
    std::ofstream out("conformance_failures.txt", std::ios::trunc);
    out << "protocol conformance mismatches (reference: stdio daemon)\n\n"
        << report;
    ADD_FAILURE() << "wrote conformance_failures.txt";
  }
}

TEST_F(ProtocolConformanceTest, OversizedLinesDropTheConnection) {
  // Socket transports bound unframed input: a line longer than the 1 MiB
  // cap with no newline is protocol abuse and drops the connection
  // without a response (the stdio daemon has no equivalent -- its peer is
  // trusted local input). Both socket transports must behave identically.
  // 2 MiB, so the cap trips while the line's eventual newline is still a
  // megabyte away in the stream -- a payload only marginally over the cap
  // can legally land its newline in the same read chunk and be parsed.
  const std::string huge(2 << 20, 'x');

  {
    RequestRouter router(router_config());
    SocketServer server(router, {});
    std::thread serving([&] { server.run(); });
    {
      LineClient client("127.0.0.1", server.port());
      try {
        client.send_line(huge);
      } catch (const std::exception&) {
        // The server may close mid-send; either way no response follows.
      }
      std::string line;
      EXPECT_FALSE(client.recv_line(line)) << line;
    }
    server.request_stop();
    serving.join();
  }

  {
    SupervisorConfig sc;
    sc.worker_cmd = "./emmark_cli";
    sc.socket_dir = dir_ + "/sk_huge";
    std::filesystem::create_directories(sc.socket_dir);
    sc.router = router_config();
    Supervisor sup(std::move(sc));
    std::thread serving([&] { sup.run(); });
    {
      LineClient client("127.0.0.1", sup.port());
      try {
        client.send_line(huge);
      } catch (const std::exception&) {
      }
      std::string line;
      EXPECT_FALSE(client.recv_line(line)) << line;
    }
    sup.request_stop();
    serving.join();
  }
}

}  // namespace
}  // namespace emmark

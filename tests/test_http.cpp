// The supervisor's HTTP/1.1 front door (docs/PROTOCOL.md §8): the same
// listening port that speaks the line protocol sniffs HTTP from the first
// request bytes. `GET /metrics` returns the fleet-merged Prometheus
// exposition -- the same bytes the `metrics` verb produces, including
// series summed across worker processes -- and `POST /v1/<verb>` carries
// exactly one protocol line, with parse errors mapped to 400, unknown
// verbs/paths to 404, and shed/retryable responses to 503.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/supervisor.h"

namespace emmark {
namespace {

struct HttpResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  // lowercased keys
  std::string body;
};

/// Raw blocking HTTP/1.1 client: just enough to drive the supervisor's
/// front door byte-for-byte (Content-Length framing, keep-alive reuse).
class HttpConn {
 public:
  HttpConn(const std::string& host, uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect failed");
    }
  }
  ~HttpConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;

  void send_raw(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, 0);
      if (n <= 0) throw std::runtime_error("send failed");
      off += static_cast<size_t>(n);
    }
  }

  /// Reads one framed response. Returns false on a clean EOF before any
  /// response byte (the server closed the connection).
  bool read_response(HttpResponse& r) {
    r = HttpResponse{};
    size_t head_end;
    while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
      if (!read_more()) return false;
    }
    const std::string head = buf_.substr(0, head_end);
    buf_.erase(0, head_end + 4);

    size_t pos = head.find("\r\n");
    const std::string status_line = head.substr(0, pos);
    // "HTTP/1.1 200 OK"
    const size_t sp = status_line.find(' ');
    r.status = std::stoi(status_line.substr(sp + 1));
    std::string rest = (pos == std::string::npos) ? "" : head.substr(pos + 2);
    while (!rest.empty()) {
      size_t nl = rest.find("\r\n");
      std::string line = rest.substr(0, nl);
      rest = (nl == std::string::npos) ? "" : rest.substr(nl + 2);
      const size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string key = line.substr(0, colon);
      for (char& ch : key) ch = static_cast<char>(std::tolower(ch));
      size_t v = colon + 1;
      while (v < line.size() && line[v] == ' ') ++v;
      r.headers[key] = line.substr(v);
    }

    const size_t want = r.headers.count("content-length")
                            ? std::stoul(r.headers["content-length"])
                            : 0;
    while (buf_.size() < want) {
      if (!read_more()) throw std::runtime_error("EOF mid-body");
    }
    r.body = buf_.substr(0, want);
    buf_.erase(0, want);
    return true;
  }

  /// True if the server closes the connection without further bytes.
  bool at_eof() {
    HttpResponse ignored;
    return !read_response(ignored);
  }

 private:
  bool read_more() {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) throw std::runtime_error("recv failed");
    if (n == 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buf_;
};

std::string get_request(const std::string& target, bool close_conn = false) {
  return "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n" +
         (close_conn ? "Connection: close\r\n" : "") + "\r\n";
}

std::string post_request(const std::string& target, const std::string& body,
                         bool close_conn = false) {
  return "POST " + target + " HTTP/1.1\r\nHost: localhost\r\n" +
         "Content-Length: " + std::to_string(body.size()) + "\r\n" +
         (close_conn ? "Connection: close\r\n" : "") + "\r\n" + body;
}

class HttpFrontDoorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = (std::filesystem::temp_directory_path() / "emmark_http_test").string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  static void TearDownTestSuite() { std::filesystem::remove_all(dir_); }

  static SupervisorConfig config(const std::string& name, size_t shards) {
    SupervisorConfig sc;
    sc.worker_cmd = "./emmark_cli";
    sc.socket_dir = dir_ + "/sk_" + name;
    std::filesystem::create_directories(sc.socket_dir);
    sc.router.cache_dir = dir_ + "/cache";
    sc.router.train_steps_cap = 25;
    sc.router.store_capacity = 2;
    sc.router.shards = shards;
    return sc;
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

  static bool all_ready(const Supervisor& sup) {
    for (size_t i = 0; i < sup.workers(); ++i) {
      if (!sup.worker_ready(i)) return false;
    }
    return true;
  }

  /// Drops the exposition families whose values legitimately differ
  /// between two scrapes with no request traffic in between: connection
  /// gauges/counters (each scrape arrives on its own connection and
  /// fans out over per-client worker links) and the scrape counter
  /// itself. Everything else must match byte for byte.
  static std::string stable_series(const std::string& exposition) {
    static const char* kVolatile[] = {
        "emmark_metrics_scrapes_total",
        "emmark_server_connections",
        "emmark_server_poll_cycle_seconds",  // ticks with every poll cycle
        "emmark_supervisor_connections",
    };
    std::string out;
    size_t pos = 0;
    while (pos <= exposition.size()) {
      size_t nl = exposition.find('\n', pos);
      if (nl == std::string::npos) nl = exposition.size();
      std::string line = exposition.substr(pos, nl - pos);
      pos = nl + 1;
      std::string name = line;
      if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
        name = line.substr(7);
      }
      bool volatile_family = false;
      for (const char* fam : kVolatile) {
        if (name.rfind(fam, 0) == 0) {
          volatile_family = true;
          break;
        }
      }
      if (!volatile_family && !line.empty()) out += line + "\n";
    }
    return out;
  }

  static std::string dir_;
};

std::string HttpFrontDoorTest::dir_;

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

TEST_F(HttpFrontDoorTest, GetMetricsMergesSeriesAcrossWorkerProcesses) {
  RunningSupervisor rs(config("metrics", 2));
  ASSERT_TRUE(wait_for([&] { return all_ready(rs.sup); }, 30000));

  HttpConn http("127.0.0.1", rs.sup.port());
  // One insert per shard so both worker processes carry the same series:
  // the merged scrape must sum them (quants homed per the shared ring;
  // int4 and gptq-int4 land on different shards of a 2-ring).
  HttpResponse r;
  http.send_raw(post_request("/v1/insert", "id=m0 model=opt-125m-sim quant=int4"));
  ASSERT_TRUE(http.read_response(r));
  ASSERT_EQ(r.status, 200) << r.body;
  http.send_raw(
      post_request("/v1/insert", "id=m1 model=opt-125m-sim quant=gptq-int4"));
  ASSERT_TRUE(http.read_response(r));
  ASSERT_EQ(r.status, 200) << r.body;

  http.send_raw(get_request("/metrics"));
  ASSERT_TRUE(http.read_response(r));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.headers["content-type"], "text/plain; version=0.0.4; charset=utf-8");
  ASSERT_GE(r.body.size(), 6u);
  EXPECT_EQ(r.body.substr(r.body.size() - 6), "# EOF\n");
  // Supervisor-owned series, verbatim.
  EXPECT_NE(r.body.find("emmark_supervisor_worker_up{shard=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(r.body.find("emmark_supervisor_worker_up{shard=\"1\"} 1"),
            std::string::npos);
  // Cross-process merged series: each worker reports 1 insert; the fleet
  // scrape sums the collision into one sample.
  EXPECT_NE(r.body.find("emmark_requests_total{verb=\"insert\"} 2"),
            std::string::npos)
      << r.body;
}

TEST_F(HttpFrontDoorTest, MetricsBodyMatchesTheMetricsVerbScrape) {
  // Acceptance: `curl /metrics` returns the same exposition bytes as the
  // line-protocol `metrics` verb. With no engine traffic between the two
  // scrapes, everything except the connection-accounting families and the
  // scrape counter itself is byte-identical.
  RunningSupervisor rs(config("parity", 2));
  ASSERT_TRUE(wait_for([&] { return all_ready(rs.sup); }, 30000));

  HttpConn http("127.0.0.1", rs.sup.port());
  HttpResponse r;
  http.send_raw(post_request("/v1/insert", "id=p model=opt-125m-sim quant=int4"));
  ASSERT_TRUE(http.read_response(r));
  ASSERT_EQ(r.status, 200) << r.body;

  http.send_raw(get_request("/metrics"));
  ASSERT_TRUE(http.read_response(r));
  ASSERT_EQ(r.status, 200);

  LineClient line("127.0.0.1", rs.sup.port());
  line.send_line("metrics id=m");
  const auto lines = line.recv_until("# EOF");
  std::string verb_scrape;
  for (const auto& l : lines) verb_scrape += l + "\n";

  const std::string from_http = stable_series(r.body);
  const std::string from_verb = stable_series(verb_scrape);
  EXPECT_EQ(from_http, from_verb);
  EXPECT_NE(from_http.find("emmark_requests_total{verb=\"insert\"} 1"),
            std::string::npos)
      << from_http;
}

TEST_F(HttpFrontDoorTest, PostV1CarriesOneProtocolLine) {
  RunningSupervisor rs(config("post", 1));
  ASSERT_TRUE(wait_for([&] { return all_ready(rs.sup); }, 30000));

  HttpConn http("127.0.0.1", rs.sup.port());
  HttpResponse r;
  http.send_raw(post_request("/v1/insert", "id=h model=opt-125m-sim quant=int4"));
  ASSERT_TRUE(http.read_response(r));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.headers["content-type"], "application/json");
  EXPECT_NE(r.body.find("\"id\":\"h\",\"cmd\":\"insert\",\"ok\":true"),
            std::string::npos)
      << r.body;

  // stats works over HTTP too (fan-out verb), on the same keep-alive
  // connection.
  http.send_raw(post_request("/v1/stats", "id=s"));
  ASSERT_TRUE(http.read_response(r));
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"cmd\":\"stats\",\"ok\":true"), std::string::npos)
      << r.body;
}

TEST_F(HttpFrontDoorTest, ErrorStatusMapping) {
  RunningSupervisor rs(config("errors", 1));
  ASSERT_TRUE(wait_for([&] { return all_ready(rs.sup); }, 30000));

  HttpConn http("127.0.0.1", rs.sup.port());
  HttpResponse r;

  // 400: malformed parameter token (parse errors surface as status codes
  // for HTTP callers; line callers get the worker's canonical line).
  http.send_raw(post_request("/v1/extract", "bogus"));
  ASSERT_TRUE(http.read_response(r));
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("expected key=value"), std::string::npos) << r.body;

  // 400: missing required parameter, caught before forwarding.
  http.send_raw(post_request("/v1/extract", "id=e model=opt-125m-sim quant=int4"));
  ASSERT_TRUE(http.read_response(r));
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("missing parameter"), std::string::npos) << r.body;

  // 400: a request body must be a single protocol line.
  http.send_raw(post_request("/v1/insert", "id=a\nid=b"));
  ASSERT_TRUE(http.read_response(r));
  EXPECT_EQ(r.status, 400);

  // 400: unknown quant spec (spec resolution errors are parse errors).
  http.send_raw(post_request("/v1/insert", "id=q quant=float99"));
  ASSERT_TRUE(http.read_response(r));
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("unknown quant spec"), std::string::npos) << r.body;

  // 400: a numeric parameter that does not parse (the worker's full parse
  // runs at the front door, so no parse error is forwarded as a 200).
  http.send_raw(post_request("/v1/insert", "id=b model=opt-125m-sim bits=banana"));
  ASSERT_TRUE(http.read_response(r));
  EXPECT_EQ(r.status, 400);
  EXPECT_EQ(r.body,
            "{\"id\":\"b\",\"cmd\":\"insert\",\"ok\":false,\"error\":\"parameter "
            "bits expects an integer, got: banana\"}\n");
  http.send_raw(post_request("/v1/trace",
                             "id=w model=opt-125m-sim codes=/nonexistent.codes "
                             "set=/nonexistent.fps min-wer=9o"));
  ASSERT_TRUE(http.read_response(r));
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("parameter min-wer expects a number, got: 9o"),
            std::string::npos)
      << r.body;

  // 404: unknown verb under /v1/, unknown path, wrong method.
  http.send_raw(post_request("/v1/nosuch", "id=n"));
  ASSERT_TRUE(http.read_response(r));
  EXPECT_EQ(r.status, 404);
  http.send_raw(get_request("/nosuch"));
  ASSERT_TRUE(http.read_response(r));
  EXPECT_EQ(r.status, 404);
  http.send_raw(get_request("/v1/insert"));
  ASSERT_TRUE(http.read_response(r));
  EXPECT_EQ(r.status, 404);
}

TEST_F(HttpFrontDoorTest, DownShardMapsTo503WithRetryableBody) {
  // A crash-looping worker (EMMARK_TEST_CRASH_ON=startup, inherited by
  // the spawned processes) leaves its shard down; HTTP callers see 503
  // with the structured retryable body, not a hang or a dropped
  // connection.
  ::setenv("EMMARK_TEST_CRASH_ON", "startup", 1);
  SupervisorConfig sc = config("down", 1);
  sc.respawn_backoff_ms = 200;
  sc.respawn_backoff_max_ms = 1000;
  {
    RunningSupervisor rs(sc);
    HttpConn http("127.0.0.1", rs.sup.port());
    HttpResponse r;
    http.send_raw(post_request("/v1/insert", "id=d model=opt-125m-sim quant=int4"));
    ASSERT_TRUE(http.read_response(r));
    EXPECT_EQ(r.status, 503);
    EXPECT_NE(r.body.find("\"retryable\":true"), std::string::npos) << r.body;
    ::unsetenv("EMMARK_TEST_CRASH_ON");
  }
  ::unsetenv("EMMARK_TEST_CRASH_ON");
}

TEST_F(HttpFrontDoorTest, ConnectionHeaderIsHonored) {
  RunningSupervisor rs(config("conn", 1));
  ASSERT_TRUE(wait_for([&] { return all_ready(rs.sup); }, 30000));

  // Connection: close -> one response, then EOF.
  HttpConn closing("127.0.0.1", rs.sup.port());
  HttpResponse r;
  closing.send_raw(get_request("/metrics", /*close_conn=*/true));
  ASSERT_TRUE(closing.read_response(r));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.headers["connection"], "close");
  EXPECT_TRUE(closing.at_eof());

  // Default keep-alive: the connection serves request after request.
  HttpConn keep("127.0.0.1", rs.sup.port());
  for (int i = 0; i < 3; ++i) {
    keep.send_raw(post_request("/v1/stats", "id=ka-" + std::to_string(i)));
    ASSERT_TRUE(keep.read_response(r)) << "request " << i;
    EXPECT_EQ(r.status, 200);
  }
}

}  // namespace
}  // namespace emmark

#include "net/supervisor.h"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cli/protocol.h"
#include "net/event_loop.h"
#include "net/http.h"
#include "obs/merge.h"

namespace emmark {

namespace {

using Clock = std::chrono::steady_clock;

// Every supervisor fd is close-on-exec (the event_loop.h helpers and
// pidfd_open open them so): spawned workers inherit none of them.

/// A spawned worker is ready once its socket accepts a connection; until
/// then the connect is retried this often (a failed connect costs
/// microseconds). A worker not ready within kStartupTimeout is killed and
/// counted as a failure.
constexpr auto kConnectRetry = std::chrono::milliseconds(5);
constexpr auto kStartupTimeout = std::chrono::seconds(30);
/// A worker that stayed up this long before dying resets its failure
/// streak, so its respawn waits only the initial backoff.
constexpr auto kHealthyAfter = std::chrono::seconds(2);
/// Graceful shutdown: live clients get this long to drain before the
/// workers are sent SIGTERM.
constexpr auto kShutdownGrace = std::chrono::seconds(10);

}  // namespace

// ---------------------------------------------------------------------------

struct Supervisor::Impl {
  // One queued response for one client request, filled either locally
  // (HTTP 400/404, fast-fail retryable errors) or by worker completions.
  // Responses flush strictly in request order per client. Every member
  // has an initializer, so a designated initializer may name any subset.
  struct Slot {
    bool ready = false;
    std::string text{};  // one response line / merged exposition, no '\n'
    std::string id{}, cmd{};
    bool is_quit = false;
    // HTTP framing (unused in line mode). http_status 0 = derive from
    // the response text (503 on shed/retryable, else 200).
    bool http = false;
    int http_status = 0;
    std::string content_type = "application/json";
    bool http_close = false;
    // Fan-out bookkeeping (stats/metrics/quit).
    size_t awaiting = 0;
    std::vector<std::string> parts{};  // worker i's reply, "" when it gave none
  };

  struct ClientConn {
    int fd = -1;
    std::string in, out;
    TransportSniff mode = TransportSniff::kUndecided;
    bool input_eof = false;
    bool dead = false;
    bool quitting = false;          // saw quit; later input is ignored
    bool close_after_flush = false;
    std::deque<std::shared_ptr<Slot>> slots;
    HttpParser http;
  };

  // One client's Unix-socket connection to one worker, opened on first
  // use. Responses on a link are matched to expectations strictly FIFO --
  // the worker session guarantees request-order responses, so no request
  // ids are needed on the wire.
  struct PendingRead {
    bool until_eof = false;  // multi-line response ending with "# EOF"
    /// Gets the response line (until_eof: every line, '\n'-terminated),
    /// or "" when the link failed first.
    std::function<void(std::string)> done;
  };

  struct Link {
    int fd = -1;
    size_t worker = 0;
    ClientConn* client = nullptr;
    std::string in{}, out{};
    std::deque<PendingRead> reads{};
    std::string reply{};   // the until_eof response read so far
    bool closing = false;  // close once reads drain (post-quit)
    bool dead = false;
  };

  struct WorkerProc {
    size_t index = 0;
    uint64_t generation = 0;
    std::string socket_path;
    pid_t pid = -1;
    int pidfd = -1;  // readable once the process exited: reap it
    enum class State { kDown, kConnecting, kReady, kBackoff };
    State state = State::kDown;
    int failures = 0;       // consecutive spawn/serve failures
    bool ever_resolved = false;  // first spawn reached ready-or-failed
    Clock::time_point spawned_at{};
    Clock::time_point next_spawn{};
    Clock::time_point next_connect{};
    // Published for the cross-thread accessors.
    std::atomic<pid_t> pub_pid{-1};
    std::atomic<bool> pub_ready{false};
    std::atomic<uint64_t> pub_respawns{0};
    std::atomic<int> pub_backoff_ms{0};
  };

  SupervisorConfig cfg;
  ShardRouter ring;
  obs::MetricsRegistry registry;
  std::vector<obs::Gauge*> up_gauges;
  std::vector<obs::Counter*> respawn_counters;
  std::vector<obs::Counter*> retryable_counters;
  obs::Counter* accepted_counter = nullptr;
  obs::Gauge* connections_gauge = nullptr;

  EventLoop loop;
  int listen_fd = -1;
  uint16_t port = 0;
  std::atomic<bool> stop{false};
  std::string socket_dir;
  bool own_socket_dir = false;

  std::vector<std::unique_ptr<WorkerProc>> workers;
  std::vector<std::unique_ptr<ClientConn>> clients;
  std::vector<std::unique_ptr<Link>> links;

  explicit Impl(SupervisorConfig config) : cfg(std::move(config)), ring(cfg.router.shards) {
    cfg.router.shards = ring.shards();

    for (size_t i = 0; i < cfg.router.shards; ++i) {
      const std::string shard = std::to_string(i);
      up_gauges.push_back(&registry.gauge(
          "emmark_supervisor_worker_up",
          "1 while the shard's worker process is serving.", {{"shard", shard}}));
      respawn_counters.push_back(&registry.counter(
          "emmark_supervisor_respawns_total",
          "Worker respawns (spawns beyond each shard's first).",
          {{"shard", shard}}));
      retryable_counters.push_back(&registry.counter(
          "emmark_supervisor_retryable_errors_total",
          "Requests failed with a retryable error because the shard's "
          "worker was down.",
          {{"shard", shard}}));
    }
    accepted_counter =
        &registry.counter("emmark_supervisor_connections_accepted_total",
                          "Front-door connections accepted since start.");
    connections_gauge = &registry.gauge("emmark_supervisor_connections",
                                        "Front-door connections open.");

    if (cfg.socket_dir.empty()) {
      socket_dir = (std::filesystem::temp_directory_path() /
                    ("emmark-sup-" + std::to_string(::getpid())))
                       .string();
      own_socket_dir = true;
    } else {
      socket_dir = cfg.socket_dir;
    }
    std::filesystem::create_directories(socket_dir);

    port = cfg.port;
    listen_fd = listen_tcp(cfg.bind_addr, port);

    workers.reserve(cfg.router.shards);
    for (size_t i = 0; i < cfg.router.shards; ++i) {
      workers.push_back(std::make_unique<WorkerProc>());
      workers.back()->index = i;
      spawn(*workers.back());
    }
  }

  ~Impl() {
    if (listen_fd >= 0) ::close(listen_fd);
    for (auto& c : clients) {
      if (c->fd >= 0) ::close(c->fd);
    }
    for (auto& l : links) {
      if (l->fd >= 0) ::close(l->fd);
    }
    for (auto& w : workers) {
      if (w->pid > 0) {
        ::kill(w->pid, SIGKILL);
        reap(*w);
      }
      if (!w->socket_path.empty()) ::unlink(w->socket_path.c_str());
    }
    if (own_socket_dir) {
      std::error_code ec;
      std::filesystem::remove_all(socket_dir, ec);
    }
  }

  // ---- worker lifecycle ----------------------------------------------------

  void spawn(WorkerProc& w) {
    ++w.generation;
    if (!w.socket_path.empty()) ::unlink(w.socket_path.c_str());
    w.socket_path = socket_dir + "/w" + std::to_string(w.index) + ".g" +
                    std::to_string(w.generation) + ".sock";

    std::vector<std::string> argv = router_args(cfg.router);
    argv.insert(argv.begin(), {cfg.worker_cmd.empty() ? "/proc/self/exe" : cfg.worker_cmd,
                               "shard-worker", "--socket", w.socket_path,
                               "--shard", std::to_string(w.index),
                               "--max-inflight", std::to_string(cfg.max_inflight_per_conn)});

    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "[supervisor] fork for shard %zu failed: %s\n",
                   w.index, strerror(errno));
      worker_failed(w);
      return;
    }
    if (pid == 0) {
      // Child. Die with the supervisor (covers a SIGKILLed parent that
      // never runs its teardown), then become the worker. Environment is
      // inherited on purpose: EMMARK_TEST_CRASH_ON set by the test
      // harness must reach the worker.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      std::vector<char*> cargv;
      cargv.reserve(argv.size() + 1);
      for (auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
      cargv.push_back(nullptr);
      ::execv(cargv[0], cargv.data());
      std::fprintf(stderr, "[shard-worker %zu] execv %s: %s\n", w.index,
                   cargv[0], strerror(errno));
      ::_exit(127);
    }

    if (w.generation > 1) {
      w.pub_respawns.fetch_add(1, std::memory_order_relaxed);
      respawn_counters[w.index]->inc();
    }
    w.pid = pid;
    w.pub_pid.store(pid, std::memory_order_relaxed);
    // Death wakes the loop through this fd; waitpid() is only called once
    // it is readable (pidfd_open: Linux >= 5.3).
    w.pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
    if (w.pidfd < 0) {
      std::fprintf(stderr, "[supervisor] pidfd_open for shard %zu failed: %s\n",
                   w.index, strerror(errno));
      worker_failed(w);
      return;
    }
    w.spawned_at = Clock::now();
    w.next_connect = w.spawned_at;
    w.state = WorkerProc::State::kConnecting;
  }

  void try_connect(WorkerProc& w) {
    const int fd = connect_unix(w.socket_path);
    if (fd < 0) {  // socket not up yet
      w.next_connect = Clock::now() + kConnectRetry;
      return;
    }
    ::close(fd);
    w.state = WorkerProc::State::kReady;
    w.ever_resolved = true;
    w.pub_ready.store(true, std::memory_order_relaxed);
    w.pub_backoff_ms.store(0, std::memory_order_relaxed);
    up_gauges[w.index]->set(1);
  }

  /// Consecutive-failure backoff, capped. Shift guarded against overflow.
  int backoff_ms_for(int failures) const {
    int64_t ms = cfg.respawn_backoff_ms;
    for (int i = 1; i < failures && ms < cfg.respawn_backoff_max_ms; ++i) {
      ms *= 2;
    }
    return static_cast<int>(
        std::min<int64_t>(ms, cfg.respawn_backoff_max_ms));
  }

  /// The worker's process is gone (reaped) or being discarded: fail all
  /// in-flight requests on it with retryable errors and arm the backoff.
  void worker_down(WorkerProc& w) {
    const bool was_healthy = w.state == WorkerProc::State::kReady &&
                             Clock::now() - w.spawned_at >= kHealthyAfter;
    w.pub_ready.store(false, std::memory_order_relaxed);
    up_gauges[w.index]->set(0);
    for (auto& link : links) {
      if (link->worker == w.index) fail_link(*link);
    }
    if (!w.socket_path.empty()) ::unlink(w.socket_path.c_str());

    w.failures = was_healthy ? 1 : w.failures + 1;
    w.ever_resolved = true;
    const int delay = backoff_ms_for(w.failures);
    w.next_spawn = Clock::now() + std::chrono::milliseconds(delay);
    w.state = WorkerProc::State::kBackoff;
    w.pub_backoff_ms.store(delay, std::memory_order_relaxed);
  }

  /// Spawn-side failure (fork error, startup timeout): kill whatever
  /// half-started and treat as a down worker.
  void worker_failed(WorkerProc& w) {
    if (w.pid > 0) {
      ::kill(w.pid, SIGKILL);
      reap(w);  // prompt: SIGKILL cannot be blocked
    }
    worker_down(w);
  }

  /// Waits for a worker that has exited (its pidfd is readable) or was
  /// just SIGKILLed, so the wait returns at once; drops its pid and pidfd
  /// and returns the wait status.
  int reap(WorkerProc& w) {
    int status = 0;
    while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (w.pidfd >= 0) ::close(w.pidfd);
    w.pidfd = -1;
    w.pid = -1;
    w.pub_pid.store(-1, std::memory_order_relaxed);
    return status;
  }

  void worker_exited(WorkerProc& w) {
    const pid_t pid = w.pid;
    const int status = reap(w);
    std::fprintf(stderr,
                 "[supervisor] shard %zu worker pid %d exited (%s %d); "
                 "respawning\n",
                 w.index, static_cast<int>(pid),
                 WIFSIGNALED(status) ? "signal" : "status",
                 WIFSIGNALED(status) ? WTERMSIG(status) : WEXITSTATUS(status));
    worker_down(w);
  }

  void advance_worker_states(bool allow_spawn) {
    const auto now = Clock::now();
    for (auto& wp : workers) {
      WorkerProc& w = *wp;
      switch (w.state) {
        case WorkerProc::State::kDown:
          if (allow_spawn) spawn(w);
          break;
        case WorkerProc::State::kBackoff:
          if (allow_spawn && now >= w.next_spawn) spawn(w);
          break;
        case WorkerProc::State::kConnecting:
          if (now > w.spawned_at + kStartupTimeout) {
            std::fprintf(stderr,
                         "[supervisor] shard %zu worker never came up; "
                         "killing\n",
                         w.index);
            worker_failed(w);
          } else if (now >= w.next_connect) {
            try_connect(w);
          }
          break;
        case WorkerProc::State::kReady:
          break;
      }
    }
  }

  /// The next instant a worker's state advances by time alone: respawn
  /// backoff, or the next connect (which also checks the startup timeout).
  Clock::time_point next_worker_deadline(bool allow_spawn) const {
    using State = WorkerProc::State;
    Clock::time_point at = EventLoop::kNever;
    for (const auto& w : workers) {
      if (w->state == State::kBackoff && allow_spawn) at = std::min(at, w->next_spawn);
      if (w->state == State::kConnecting) at = std::min(at, w->next_connect);
    }
    return at;
  }

  // ---- routing -------------------------------------------------------------

  std::string retryable_error(const std::string& id, const std::string& cmd,
                              size_t shard) {
    retryable_counters[shard]->inc();
    return error_line(id, cmd,
                      "shard " + std::to_string(shard) +
                          " worker unavailable (respawning); retry later",
                      "retryable");
  }

  /// This client's link to a ready worker, opened on first use; nullptr
  /// while the worker is not serving.
  Link* link_for(ClientConn& c, size_t worker) {
    if (workers[worker]->state != WorkerProc::State::kReady) return nullptr;
    for (auto& link : links) {
      if (!link->dead && !link->closing && link->client == &c &&
          link->worker == worker) {
        return link.get();
      }
    }
    const int fd = connect_unix(workers[worker]->socket_path);
    if (fd < 0) return nullptr;
    links.push_back(std::make_unique<Link>(Link{.fd = fd, .worker = worker, .client = &c}));
    return links.back().get();
  }

  /// Queues the client's next response slot; responses flush strictly in
  /// request order per client.
  std::shared_ptr<Slot> push_slot(ClientConn& c, Slot slot) {
    c.slots.push_back(std::make_shared<Slot>(std::move(slot)));
    return c.slots.back();
  }

  /// The line door. A line that does not parse goes to shard 0, whose
  /// worker parses it again and answers with the canonical error line.
  void route_line(ClientConn& c, const std::string& line) {
    const auto tokens = tokenize(line);
    if (tokens.empty() || tokens[0][0] == '#') return;  // no response

    auto slot = push_slot(c, {.id = line_id(tokens), .cmd = tokens[0]});
    ParsedRequest request;
    try {
      request = parse_request(tokens[0], Params::parse(tokens), cfg.router.train_steps_cap);
    } catch (const std::exception&) {
      return forward(c, slot, 0, line);
    }
    dispatch(c, slot, request, line);
  }

  /// Both doors, once the line parsed: an engine verb goes to its home
  /// shard on the ring, `stats`, `metrics` and `quit` to every worker.
  void dispatch(ClientConn& c, const std::shared_ptr<Slot>& slot,
                const ParsedRequest& request, const std::string& line) {
    if (request.verb->route == VerbSpec::Route::kSpec) {
      forward(c, slot, ring.shard_for(request.spec.key()), line);
    } else {
      fan_out(c, slot, request.verb->verb, line);
    }
  }

  void forward(ClientConn& c, const std::shared_ptr<Slot>& slot, size_t shard,
               const std::string& line) {
    auto answer = [this, slot, shard](std::string reply) {
      slot->text = !reply.empty() ? std::move(reply)
                                  : retryable_error(slot->id, slot->cmd, shard);
      slot->ready = true;
    };
    Link* link = link_for(c, shard);
    if (link == nullptr) return answer("");  // the worker is down
    link->out += line + '\n';
    link->reads.push_back(PendingRead{false, std::move(answer)});
  }

  /// Sends `line` to every ready worker over this client's links and
  /// merges the replies once each has answered or failed. After `quit`
  /// the links close and the client reads no further input.
  void fan_out(ClientConn& c, const std::shared_ptr<Slot>& slot, Verb verb,
               const std::string& line) {
    if (verb == Verb::kQuit) {
      c.quitting = true;
      slot->is_quit = true;
    }
    const bool until_eof = verb == Verb::kMetrics;  // ends with "# EOF"
    slot->parts.assign(workers.size(), "");
    for (size_t i = 0; i < workers.size(); ++i) {
      Link* link = link_for(c, i);
      if (link == nullptr) continue;
      link->out += line + '\n';
      if (verb == Verb::kQuit) link->closing = true;  // once the reply arrives
      ++slot->awaiting;
      link->reads.push_back(PendingRead{until_eof, [this, slot, i, verb](std::string reply) {
        slot->parts[i] = std::move(reply);
        if (--slot->awaiting == 0) merge(*slot, verb);
      }});
    }
    if (slot->awaiting == 0) merge(*slot, verb);
  }

  void merge(Slot& slot, Verb verb) {
    try {
      slot.text = merged_reply(slot, verb);
    } catch (const std::exception& e) {
      slot.text = error_line(slot.id, slot.cmd, e.what());
    }
    slot.ready = true;
  }

  /// The fleet's reply from the workers' replies, in the single-process
  /// shape: one shard entry per worker, at its ring index.
  std::string merged_reply(Slot& slot, Verb verb) {
    if (verb == Verb::kMetrics) {  // the supervisor's own series first
      obs::Exposition own;
      registry.expose(own);
      slot.parts.insert(slot.parts.begin(), own.text());
      return obs::merge_expositions(slot.parts) + "# EOF";
    }
    if (verb == Verb::kQuit) {
      uint64_t served = 0;
      for (const std::string& part : slot.parts) {
        if (!part.empty()) served += parse_quit(part);
      }
      return render_quit(served);
    }
    StatsReply merged;
    bool any = false;
    for (size_t i = 0; i < slot.parts.size(); ++i) {
      if (slot.parts[i].empty()) continue;
      StatsReply part = parse_stats(slot.parts[i]);
      if (!any) merged.id = part.id;  // a line without id= has one per worker
      any = true;
      merged.capacity += part.capacity;
      merged.submitted += part.submitted;
      merged.completed += part.completed;
      merged.failed += part.failed;
      for (ShardSnapshot& shard : part.shards) {
        shard.shard = i;
        merged.shards.push_back(shard);
      }
    }
    if (!any) {
      return error_line(slot.id, slot.cmd, "no shard workers available; retry later",
                        "retryable");
    }
    return render_stats(merged);
  }

  // ---- HTTP ----------------------------------------------------------------

  /// A locally answered HTTP error: the §3 error line with its status.
  void http_error(ClientConn& c, int status, const std::string& id,
                  const std::string& cmd, const std::string& error,
                  bool close_conn) {
    push_slot(c, {.ready = true, .text = error_line(id, cmd, error), .id = id, .cmd = cmd,
                  .http = true, .http_status = status, .http_close = close_conn});
  }

  void handle_http_request(ClientConn& c, const HttpRequest& req) {
    if (req.method == "GET" && req.target == "/metrics") {
      auto slot = push_slot(c, {.cmd = "metrics", .http = true, .http_close = req.close});
      slot->content_type = "text/plain; version=0.0.4; charset=utf-8";
      fan_out(c, slot, Verb::kMetrics, "metrics");
      return;
    }
    if (req.method != "POST" || req.target.rfind("/v1/", 0) != 0) {
      http_error(c, 404, "", "", "not found: " + req.method + " " + req.target,
                 req.close);
      return;
    }

    const std::string name = req.target.substr(4);
    const VerbSpec* verb = find_verb(name);
    if (verb == nullptr || !verb->http) {
      http_error(c, 404, "", name,
                 "unknown verb: " + name + " (known: " +
                     verb_names(/*http_only=*/true) + ")",
                 req.close);
      return;
    }
    if (req.body.find_first_of("\r\n") != std::string::npos) {
      http_error(c, 400, "", name, "body must be a single line of key=value parameters",
                 req.close);
      return;
    }
    std::string line = name;
    if (!req.body.empty()) line += " " + req.body;
    const auto tokens = tokenize(line);
    const std::string id = line_id(tokens);
    // A line that does not parse is answered here with 400 instead of
    // being forwarded: HTTP callers get status-code semantics, line
    // callers get the worker's canonical error line.
    ParsedRequest request;
    try {
      request = parse_request(name, Params::parse(tokens), cfg.router.train_steps_cap);
    } catch (const std::exception& e) {
      http_error(c, 400, id, name, e.what(), req.close);
      return;
    }

    dispatch(c, push_slot(c, {.id = id, .cmd = name, .http = true, .http_close = req.close}),
             request, line);
  }

  // ---- client IO -----------------------------------------------------------

  void process_client_input(ClientConn& c) {
    if (c.mode == TransportSniff::kUndecided) {
      c.mode = sniff_transport(c.in);
      if (c.mode == TransportSniff::kUndecided) {
        if (!c.input_eof) return;
        c.mode = TransportSniff::kLine;  // short EOF
      }
    }

    if (c.mode == TransportSniff::kLine) {
      std::string line;
      while (!c.quitting && c.slots.size() < cfg.max_inflight_per_conn &&
             pop_line(c.in, c.input_eof, line)) {
        route_line(c, line);
      }
      if (c.quitting) c.in.clear();
      return;
    }

    while (!c.close_after_flush && c.slots.size() < cfg.max_inflight_per_conn) {
      HttpRequest req;
      std::string error;
      const auto status = c.http.parse(c.in, req, &error);
      if (status == HttpParser::Status::kNeedMore) break;
      if (status == HttpParser::Status::kError) {
        http_error(c, 400, "", "", error, /*close_conn=*/true);
        c.input_eof = true;  // stop reading a stream we cannot frame
        break;
      }
      handle_http_request(c, req);
    }
  }

  bool read_client(ClientConn& c) {
    const RecvStatus status = recv_pending(
        c.fd, c.in, c.mode == TransportSniff::kHttp ? 0 : kMaxLineBytes,
        [&] { return c.slots.size() >= cfg.max_inflight_per_conn; });
    if (status == RecvStatus::kError) return false;
    if (status == RecvStatus::kEof) c.input_eof = true;
    process_client_input(c);
    return true;
  }

  void pump_client(ClientConn& c) {
    while (!c.slots.empty() && c.slots.front()->ready) {
      const auto slot = c.slots.front();
      c.slots.pop_front();
      if (c.mode == TransportSniff::kHttp) {
        int status = slot->http_status;
        if (status == 0) {
          const bool unavailable =
              slot->text.find("\"shed\":true") != std::string::npos ||
              slot->text.find("\"retryable\":true") != std::string::npos;
          status = unavailable ? 503 : 200;
        }
        c.out += http_response(status, slot->content_type, slot->text + "\n",
                               /*keep_alive=*/!slot->http_close);
        if (slot->http_close) c.close_after_flush = true;
      } else {
        c.out += slot->text;
        c.out += '\n';
        if (slot->is_quit) c.close_after_flush = true;
      }
    }
    // A flush may have freed in-flight slots for buffered input.
    if (!c.in.empty() || c.input_eof) process_client_input(c);
  }

  void drop_client(ClientConn* c) {
    for (auto& link : links) {
      if (link->client == c && !link->dead) {
        link->dead = true;
        link->reads.clear();  // responses for a vanished client: discard
      }
    }
    if (c->fd >= 0) ::close(c->fd);
  }

  bool client_finished(const ClientConn& c) {
    if (c.close_after_flush && c.out.empty()) return true;
    return c.input_eof && c.in.empty() && c.slots.empty() && c.out.empty();
  }

  // ---- link IO -------------------------------------------------------------

  void link_consume(Link& link) {
    std::string line;
    while (!link.reads.empty() && pop_line(link.in, /*eof=*/false, line)) {
      if (link.reads.front().until_eof) {
        link.reply += line + '\n';
        if (line != "# EOF") continue;
        line = std::exchange(link.reply, {});
      }
      auto done = std::move(link.reads.front().done);
      link.reads.pop_front();
      done(std::move(line));
    }
  }

  bool read_link(Link& link) {
    const RecvStatus status = recv_pending(link.fd, link.in);
    // A worker never half-closes a live conversation: EOF means the
    // process died (its pidfd wakes the loop to reap it) or finished its
    // quit. Lines that arrived before the EOF still count.
    if (status != RecvStatus::kError) link_consume(link);
    return status == RecvStatus::kOpen;
  }

  void fail_link(Link& link) {
    if (link.dead) return;
    link.dead = true;
    for (auto& pr : std::exchange(link.reads, {})) pr.done("");
  }

  // ---- main loop -----------------------------------------------------------

  /// One loop pass: sleeps until a socket or pidfd is ready, request_stop()
  /// wakes it, or the next worker deadline (or `until`) passes; then
  /// serves every event and pumps every client.
  void one_cycle(bool allow_accept, bool allow_spawn,
                 Clock::time_point until = EventLoop::kNever) {
    advance_worker_states(allow_spawn);

    // Hold the front door until every worker's first spawn has resolved
    // (ready, or failed into backoff): a client connecting during the
    // startup race would see spurious retryable errors.
    if (allow_accept && std::all_of(workers.begin(), workers.end(),
                                    [](const auto& w) { return w->ever_resolved; })) {
      loop.watch(listen_fd, POLLIN, [this](short) {
        accept_pending(listen_fd, [this](int fd) {
          clients.push_back(std::make_unique<ClientConn>());
          clients.back()->fd = fd;
          accepted_counter->inc();
        });
      });
    }
    for (auto& client : clients) {
      ClientConn* c = client.get();
      short events = 0;
      if (!c->input_eof && !c->quitting &&
          c->slots.size() < cfg.max_inflight_per_conn) {
        events |= POLLIN;
      }
      if (!c->out.empty()) events |= POLLOUT;
      loop.watch(c->fd, events, [this, c](short revents) {
        if (((revents & (POLLIN | POLLHUP | POLLERR)) && !read_client(*c)) ||
            ((revents & POLLOUT) && !send_pending(c->fd, c->out))) {
          c->dead = true;
        }
      });
    }
    for (auto& link : links) {
      Link* l = link.get();
      if (l->dead) continue;
      const short events = l->out.empty() ? POLLIN : POLLIN | POLLOUT;
      loop.watch(l->fd, events, [this, l](short revents) {
        if (((revents & (POLLIN | POLLHUP | POLLERR)) && !read_link(*l)) ||
            ((revents & POLLOUT) && !send_pending(l->fd, l->out))) {
          fail_link(*l);
        }
      });
    }
    // Last, so a dead worker's links are drained before it is reaped.
    for (auto& worker : workers) {
      WorkerProc* w = worker.get();
      if (w->pid > 0) {
        loop.watch(w->pidfd, POLLIN, [this, w](short) { worker_exited(*w); });
      }
    }

    if (!loop.wait(std::min(until, next_worker_deadline(allow_spawn)))) return;
    loop.dispatch();

    // Drain finished links.
    std::erase_if(links, [](const std::unique_ptr<Link>& l) {
      const bool done = l->dead || (l->closing && l->reads.empty());
      if (done && l->fd >= 0) ::close(l->fd);
      return done;
    });

    // Flush ready responses and sweep finished/dead clients.
    for (auto& c : clients) {
      if (c->dead) continue;
      pump_client(*c);
      if (!c->out.empty() && !send_pending(c->fd, c->out)) c->dead = true;
    }
    std::erase_if(clients, [this](const std::unique_ptr<ClientConn>& c) {
      const bool done = c->dead || client_finished(*c);
      if (done) drop_client(c.get());
      return done;
    });
    connections_gauge->set(static_cast<int64_t>(clients.size()));

    // Requests enqueued by this pass (links opened or written above) go on
    // the wire now instead of waiting for the next pass.
    for (auto& l : links) {
      if (!l->dead && !l->out.empty() && !send_pending(l->fd, l->out)) fail_link(*l);
    }
  }

  int run() {
    while (!stop.load(std::memory_order_relaxed)) {
      one_cycle(/*allow_accept=*/true, /*allow_spawn=*/true);
    }

    // Graceful shutdown: close the door, drain live clients within the
    // grace budget (no respawns -- a worker dying now just fails its
    // remaining requests retryable), then terminate workers.
    ::close(listen_fd);
    listen_fd = -1;
    const auto deadline = Clock::now() + kShutdownGrace;
    auto draining = [this] {
      return std::any_of(clients.begin(), clients.end(), [](const auto& c) {
        return !c->slots.empty() || !c->out.empty();
      });
    };
    while (draining() && Clock::now() < deadline) {
      one_cycle(/*allow_accept=*/false, /*allow_spawn=*/false, deadline);
    }
    for (auto& c : clients) drop_client(c.get());
    clients.clear();

    // SIGTERM every worker, reap each as its pidfd turns readable, and
    // SIGKILL whatever is still up after 5 s.
    for (auto& w : workers) {
      if (w->pid > 0) ::kill(w->pid, SIGTERM);
    }
    const auto kill_deadline = Clock::now() + std::chrono::seconds(5);
    for (auto& w : workers) {
      if (w->pid > 0) {
        bool exited = false;
        while (!exited && Clock::now() < kill_deadline) {
          loop.watch(w->pidfd, POLLIN, [&exited](short) { exited = true; });
          if (loop.wait(kill_deadline)) loop.dispatch();
        }
        if (!exited) ::kill(w->pid, SIGKILL);
        reap(*w);
      }
      w->pub_ready.store(false, std::memory_order_relaxed);
      if (!w->socket_path.empty()) ::unlink(w->socket_path.c_str());
    }
    return 0;  // links and the socket dir go with ~Impl
  }
};

// ---------------------------------------------------------------------------

Supervisor::Supervisor(SupervisorConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

Supervisor::~Supervisor() = default;

uint16_t Supervisor::port() const { return impl_->port; }

int Supervisor::run() { return impl_->run(); }

void Supervisor::request_stop() {
  impl_->stop.store(true, std::memory_order_relaxed);
  impl_->loop.wake();
}

size_t Supervisor::workers() const { return impl_->workers.size(); }

pid_t Supervisor::worker_pid(size_t shard) const {
  return impl_->workers[shard]->pub_pid.load(std::memory_order_relaxed);
}

bool Supervisor::worker_ready(size_t shard) const {
  return impl_->workers[shard]->pub_ready.load(std::memory_order_relaxed);
}

uint64_t Supervisor::worker_respawns(size_t shard) const {
  return impl_->workers[shard]->pub_respawns.load(std::memory_order_relaxed);
}

int Supervisor::worker_backoff_ms(size_t shard) const {
  return impl_->workers[shard]->pub_backoff_ms.load(std::memory_order_relaxed);
}

}  // namespace emmark

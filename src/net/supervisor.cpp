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
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <memory>
#include <stdexcept>
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

/// While a spawned worker has not bound its socket yet, the handshake
/// connect is retried this often (a failed connect costs microseconds).
constexpr auto kHandshakeRetry = std::chrono::milliseconds(5);

/// First u64 after `"key":` in a shallow JSON line; 0 if absent. The
/// stats/quit merges only need the router's own fixed-shape output, so a
/// real JSON parser would be dead weight here.
uint64_t find_u64(const std::string& s, const std::string& quoted_key) {
  const size_t at = s.find("\"" + quoted_key + "\":");
  if (at == std::string::npos) return 0;
  return std::strtoull(s.c_str() + at + quoted_key.size() + 3, nullptr, 10);
}

std::string find_string(const std::string& s, const std::string& quoted_key) {
  const std::string needle = "\"" + quoted_key + "\":\"";
  const size_t at = s.find(needle);
  if (at == std::string::npos) return "";
  const size_t start = at + needle.size();
  std::string out;
  for (size_t i = start; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      out += s[i + 1];
      ++i;
      continue;
    }
    if (s[i] == '"') break;
    out += s[i];
  }
  return out;
}

const char* const kHandshakeId = "__sup_handshake__";

}  // namespace

// ---------------------------------------------------------------------------

struct Supervisor::Impl {
  // One queued response for one client request, filled either locally
  // (HTTP 400/404, fast-fail retryable errors) or by worker completions.
  // Responses flush strictly in request order per client.
  struct Slot {
    bool ready = false;
    std::string text;  // one response line / merged exposition, no '\n'
    std::string id, cmd;
    size_t shard = 0;
    bool is_quit = false;
    // HTTP framing (unused in line mode). http_status 0 = derive from
    // the response text (503 on shed/retryable, else 200).
    bool http = false;
    int http_status = 0;
    std::string content_type = "application/json";
    bool http_close = false;
    // Fan-out bookkeeping (stats/metrics/quit).
    size_t awaiting = 0;
    std::vector<std::string> parts;  // indexed by source (worker, or +1)
    uint64_t served = 0;
  };

  struct ClientConn {
    int fd = -1;
    std::string in, out;
    enum class Mode { kUnknown, kLine, kHttp } mode = Mode::kUnknown;
    bool input_eof = false;
    bool dead = false;
    bool quitting = false;          // saw quit; later input is ignored
    bool close_after_flush = false;
    std::deque<std::shared_ptr<Slot>> slots;
    HttpParser http;
  };

  // One Unix-socket connection to a worker: either the per-worker
  // control link (client == nullptr; carries the handshake) or a lazily
  // opened per-(client, worker) proxy link. Responses on a link are
  // matched to expectations strictly FIFO -- the worker session
  // guarantees request-order responses, so no request ids are needed on
  // the wire.
  struct PendingRead {
    bool until_eof = false;  // multi-line response ending with "# EOF"
    std::function<void(std::vector<std::string>&&, bool ok)> done;
  };

  struct Link {
    int fd = -1;
    size_t worker = 0;
    ClientConn* client = nullptr;  // nullptr: control link
    std::string in, out;
    std::deque<PendingRead> reads;
    std::vector<std::string> multi;  // accumulating until_eof lines
    bool closing = false;            // close once reads drain (post-quit)
    bool dead = false;
  };

  struct WorkerProc {
    size_t index = 0;
    uint64_t generation = 0;
    std::string socket_path;
    pid_t pid = -1;
    int pidfd = -1;  // readable once the process exited: reap it
    enum class State { kDown, kConnecting, kHandshaking, kReady, kBackoff };
    State state = State::kDown;
    int failures = 0;       // consecutive spawn/serve failures
    bool ever_resolved = false;  // first spawn reached ready-or-failed
    Clock::time_point spawned_at{};
    Clock::time_point next_spawn{};
    Clock::time_point next_connect{};
    Clock::time_point handshake_deadline{};
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

  explicit Impl(SupervisorConfig config)
      : cfg(std::move(config)),
        ring(cfg.router.shards == 0 ? 1 : cfg.router.shards) {
    if (cfg.router.shards == 0) cfg.router.shards = 1;

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

  std::string worker_binary() const {
    return cfg.worker_cmd.empty() ? "/proc/self/exe" : cfg.worker_cmd;
  }

  void spawn(WorkerProc& w) {
    ++w.generation;
    if (!w.socket_path.empty()) ::unlink(w.socket_path.c_str());
    w.socket_path = socket_dir + "/w" + std::to_string(w.index) + ".g" +
                    std::to_string(w.generation) + ".sock";

    std::vector<std::string> argv = {
        worker_binary(), "shard-worker",
        "--socket", w.socket_path,
        "--shard", std::to_string(w.index),
        "--max-inflight", std::to_string(cfg.max_inflight_per_conn),
        "--cache", cfg.router.cache_dir,
        "--capacity", std::to_string(cfg.router.store_capacity),
        "--max-bytes", std::to_string(cfg.router.max_resident_bytes),
        "--train-cap", std::to_string(cfg.router.train_steps_cap),
        "--workers", std::to_string(cfg.router.max_workers),
        "--engine-queue", std::to_string(cfg.router.engine_queue),
        "--base-seed", std::to_string(cfg.router.base_seed),
        "--min-wer", std::to_string(cfg.router.min_wer_pct),
        "--max-queued", std::to_string(cfg.router.max_queued),
        "--store-ttl", std::to_string(cfg.router.store_ttl_sec),
    };
    if (cfg.router.echo) argv.push_back("--echo");

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
    w.handshake_deadline =
        w.spawned_at + std::chrono::milliseconds(cfg.handshake_timeout_ms);
    w.state = WorkerProc::State::kConnecting;
  }

  Link* open_link(size_t worker_index, ClientConn* client) {
    const int fd = connect_unix(workers[worker_index]->socket_path);
    if (fd < 0) return nullptr;
    auto link = std::make_unique<Link>();
    link->fd = fd;
    link->worker = worker_index;
    link->client = client;
    links.push_back(std::move(link));
    return links.back().get();
  }

  void try_handshake(WorkerProc& w) {
    Link* link = open_link(w.index, nullptr);
    if (link == nullptr) {  // socket not up yet
      w.next_connect = Clock::now() + kHandshakeRetry;
      return;
    }
    link->out += std::string("stats id=") + kHandshakeId + "\n";
    const uint64_t gen = w.generation;
    link->reads.push_back(PendingRead{
        false, [this, &w, gen](std::vector<std::string>&& lines, bool ok) {
          if (w.generation != gen) return;  // stale generation
          if (ok && !lines.empty() &&
              lines[0].find("\"ok\":true") != std::string::npos) {
            w.state = WorkerProc::State::kReady;
            w.ever_resolved = true;
            w.pub_ready.store(true, std::memory_order_relaxed);
            w.pub_backoff_ms.store(0, std::memory_order_relaxed);
            up_gauges[w.index]->set(1);
          }
          // On !ok the death path has already scheduled the respawn.
        }});
    w.state = WorkerProc::State::kHandshaking;
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

  void schedule_respawn(WorkerProc& w, bool was_healthy) {
    w.failures = was_healthy ? 1 : w.failures + 1;
    w.ever_resolved = true;
    const int delay = backoff_ms_for(w.failures);
    w.next_spawn = Clock::now() + std::chrono::milliseconds(delay);
    w.state = WorkerProc::State::kBackoff;
    w.pub_backoff_ms.store(delay, std::memory_order_relaxed);
  }

  /// The worker's process is gone (reaped) or being discarded: fail all
  /// in-flight requests on it with retryable errors and arm the backoff.
  void worker_down(WorkerProc& w) {
    const bool was_healthy =
        w.state == WorkerProc::State::kReady &&
        Clock::now() - w.spawned_at >=
            std::chrono::milliseconds(cfg.healthy_after_ms);
    w.pub_ready.store(false, std::memory_order_relaxed);
    up_gauges[w.index]->set(0);
    fail_links_for_worker(w.index);
    if (!w.socket_path.empty()) ::unlink(w.socket_path.c_str());
    schedule_respawn(w, was_healthy);
  }

  /// Spawn-side failure (fork error, handshake timeout): kill whatever
  /// half-started and treat as a down worker.
  void worker_failed(WorkerProc& w) {
    if (w.pid > 0) {
      ::kill(w.pid, SIGKILL);
      reap(w);  // prompt: SIGKILL cannot be blocked
    }
    worker_down(w);
  }

  void fail_links_for_worker(size_t index) {
    for (auto& link : links) {
      if (link->worker == index) fail_link(*link);
    }
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
          if (now > w.handshake_deadline) {
            std::fprintf(stderr,
                         "[supervisor] shard %zu worker never came up; "
                         "killing\n",
                         w.index);
            worker_failed(w);
          } else if (now >= w.next_connect) {
            try_handshake(w);
          }
          break;
        case WorkerProc::State::kHandshaking:
          if (now > w.handshake_deadline) {
            std::fprintf(stderr,
                         "[supervisor] shard %zu handshake timed out; "
                         "killing\n",
                         w.index);
            worker_failed(w);
          }
          break;
        case WorkerProc::State::kReady:
          break;
      }
    }
  }

  /// The next instant a worker's state advances by time alone: respawn
  /// backoff, handshake retry, handshake timeout.
  Clock::time_point next_worker_deadline(bool allow_spawn) const {
    using State = WorkerProc::State;
    Clock::time_point at = EventLoop::kNever;
    for (const auto& w : workers) {
      if (w->state == State::kBackoff && allow_spawn) at = std::min(at, w->next_spawn);
      if (w->state == State::kConnecting) at = std::min(at, w->next_connect);
      if (w->state == State::kConnecting || w->state == State::kHandshaking) {
        at = std::min(at, w->handshake_deadline);
      }
    }
    return at;
  }

  bool accepting() const {
    // Hold the front door until every worker's first spawn has resolved
    // (ready, or failed into backoff): a client connecting during the
    // startup race would see spurious retryable errors.
    for (const auto& w : workers) {
      if (!w->ever_resolved) return false;
    }
    return true;
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

  /// Home shard for a request line: the session's spec resolution
  /// (cli/protocol.h) on the ring. A line whose verb or spec does not
  /// resolve goes to shard 0; the worker parses the whole line either way
  /// and produces the canonical error bytes.
  size_t route_shard(const std::vector<std::string>& tokens) {
    const VerbSpec* verb = find_verb(tokens[0]);
    if (verb == nullptr || verb->route != VerbSpec::Route::kSpec) return 0;
    try {
      const ModelSpec spec =
          resolve_spec(Params::parse(tokens), cfg.router.train_steps_cap);
      return ring.shard_for(spec.key());
    } catch (const std::exception&) {
      return 0;
    }
  }

  Link* link_for(ClientConn& c, size_t worker_index) {
    for (auto& link : links) {
      if (!link->dead && !link->closing && link->client == &c &&
          link->worker == worker_index) {
        return link.get();
      }
    }
    return open_link(worker_index, &c);
  }

  void finalize_metrics(const std::shared_ptr<Slot>& slot) {
    // The supervisor's own series first, then every worker's.
    obs::Exposition own;
    registry.expose(own);
    slot->parts.insert(slot->parts.begin(), own.text());
    slot->text = obs::merge_expositions(slot->parts) + "# EOF";
    slot->http_status = slot->http ? 200 : 0;
    slot->ready = true;
  }

  void finalize_stats(const std::shared_ptr<Slot>& slot) {
    // Reassemble the single-process `stats` shape (router.cpp) from the
    // per-worker single-shard snapshots: top-level store/engine sums, and
    // the shards array concatenated with each worker's lone shard entry
    // renumbered to its ring index.
    uint64_t hits = 0, misses = 0, builds = 0, evictions = 0, resident = 0,
             resident_bytes = 0, capacity = 0;
    uint64_t submitted = 0, completed = 0, failed = 0, pending = 0;
    std::string id;
    std::string shards_json;
    size_t present = 0;
    for (size_t i = 0; i < slot->parts.size(); ++i) {
      const std::string& part = slot->parts[i];
      if (part.empty()) continue;
      ++present;
      if (id.empty()) id = find_string(part, "id");
      capacity += find_u64(part, "capacity");
      submitted += find_u64(part, "submitted");
      completed += find_u64(part, "completed");
      failed += find_u64(part, "failed");
      const size_t arr = part.find("\"shards\":[");
      if (arr == std::string::npos) continue;
      // part ends ...,"shards":[{...}]}
      std::string inner = part.substr(arr + 10);
      if (inner.size() >= 2 && inner.compare(inner.size() - 2, 2, "]}") == 0) {
        inner.resize(inner.size() - 2);
      }
      hits += find_u64(inner, "hits");
      misses += find_u64(inner, "misses");
      builds += find_u64(inner, "builds");
      evictions += find_u64(inner, "evictions");
      resident += find_u64(inner, "resident");
      resident_bytes += find_u64(inner, "resident_bytes");
      pending += find_u64(inner, "pending");
      const std::string tag = "\"shard\":0";
      const size_t at = inner.find(tag);
      if (at != std::string::npos) {
        inner = inner.substr(0, at) + "\"shard\":" + std::to_string(i) +
                inner.substr(at + tag.size());
      }
      if (!shards_json.empty()) shards_json += ",";
      shards_json += inner;
    }
    if (present == 0) {
      slot->text = error_line(slot->id, slot->cmd,
                              "no shard workers available; retry later",
                              "retryable");
      slot->ready = true;
      return;
    }
    slot->text =
        "{\"id\":\"" + json_escape(id) + "\",\"cmd\":\"stats\",\"ok\":true," +
        "\"store\":{\"hits\":" + std::to_string(hits) +
        ",\"misses\":" + std::to_string(misses) +
        ",\"builds\":" + std::to_string(builds) +
        ",\"evictions\":" + std::to_string(evictions) +
        ",\"resident\":" + std::to_string(resident) +
        ",\"resident_bytes\":" + std::to_string(resident_bytes) +
        ",\"capacity\":" + std::to_string(capacity) + "}," +
        "\"engine\":{\"submitted\":" + std::to_string(submitted) +
        ",\"completed\":" + std::to_string(completed) +
        ",\"failed\":" + std::to_string(failed) +
        ",\"pending\":" + std::to_string(pending) + "}," +
        "\"shards\":[" + shards_json + "]}";
    slot->ready = true;
  }

  /// Queues the client's next response slot; responses flush strictly in
  /// request order per client.
  std::shared_ptr<Slot> push_slot(ClientConn& c, const std::string& cmd,
                                  const std::string& id) {
    auto slot = std::make_shared<Slot>();
    slot->cmd = cmd;
    slot->id = id;
    c.slots.push_back(slot);
    return slot;
  }

  void route_line(ClientConn& c, const std::string& line) {
    const auto tokens = tokenize(line);
    if (tokens.empty() || tokens[0][0] == '#') return;  // no response

    auto slot = push_slot(c, tokens[0], line_id(tokens));
    const VerbSpec* verb = find_verb(slot->cmd);
    if (verb != nullptr && verb->route == VerbSpec::Route::kFanOut) {
      fan_out(c, slot, verb->verb, line);
      return;
    }
    // Engine verbs, unknown commands, malformed lines: one owning worker
    // (shard 0 for anything unroutable) produces the canonical response.
    slot->shard = route_shard(tokens);
    forward_to_worker(c, slot, slot->shard, line);
  }

  void fan_out(ClientConn& c, const std::shared_ptr<Slot>& slot, Verb verb,
               const std::string& line) {
    switch (verb) {
      case Verb::kMetrics:
        return to_every_worker(c, slot, "metrics", /*until_eof=*/true,
                               &Impl::finalize_metrics);
      case Verb::kStats:
        return to_every_worker(c, slot, line, /*until_eof=*/false,
                               &Impl::finalize_stats);
      default:
        return start_quit(c, slot);
    }
  }

  void start_quit(ClientConn& c, const std::shared_ptr<Slot>& slot) {
    c.quitting = true;
    slot->is_quit = true;
    for (auto& link : links) {
      if (link->dead || link->closing || link->client != &c) continue;
      link->out += "quit\n";
      link->closing = true;  // close once the quit response arrives
      ++slot->awaiting;
      link->reads.push_back(PendingRead{
          false, [slot](std::vector<std::string>&& lines, bool ok) {
            if (ok && !lines.empty()) {
              slot->served += find_u64(lines[0], "served");
            }
            if (--slot->awaiting == 0) {
              slot->text = "{\"cmd\":\"quit\",\"ok\":true,\"served\":" +
                           std::to_string(slot->served) + "}";
              slot->ready = true;
            }
          }});
    }
    if (slot->awaiting == 0) {
      slot->text = "{\"cmd\":\"quit\",\"ok\":true,\"served\":0}";
      slot->ready = true;
    }
  }

  void forward_to_worker(ClientConn& c, const std::shared_ptr<Slot>& slot,
                         size_t shard, const std::string& line) {
    WorkerProc& w = *workers[shard];
    Link* link = (w.state == WorkerProc::State::kReady)
                     ? link_for(c, shard)
                     : nullptr;
    if (link == nullptr) {
      slot->text = retryable_error(slot->id, slot->cmd, shard);
      slot->ready = true;
      return;
    }
    link->out += line;
    link->out += '\n';
    link->reads.push_back(PendingRead{
        false, [this, slot, shard](std::vector<std::string>&& lines, bool ok) {
          slot->text = ok && !lines.empty()
                           ? lines[0]
                           : retryable_error(slot->id, slot->cmd, shard);
          slot->ready = true;
        }});
  }

  /// Sends `request` to every ready worker over this client's links and
  /// runs `finish` once each has answered or failed; parts[i] holds worker
  /// i's reply ("" when it gave none). `until_eof` reads a multi-line
  /// reply ending with "# EOF".
  void to_every_worker(ClientConn& c, const std::shared_ptr<Slot>& slot,
                       const std::string& request, bool until_eof,
                       void (Impl::*finish)(const std::shared_ptr<Slot>&)) {
    slot->parts.assign(workers.size(), "");
    for (size_t i = 0; i < workers.size(); ++i) {
      if (workers[i]->state != WorkerProc::State::kReady) continue;
      Link* link = link_for(c, i);
      if (link == nullptr) continue;
      link->out += request + '\n';
      ++slot->awaiting;
      link->reads.push_back(PendingRead{
          until_eof, [this, slot, i, until_eof, finish](
                         std::vector<std::string>&& lines, bool ok) {
            for (size_t l = 0; ok && l < lines.size(); ++l) {
              slot->parts[i] += lines[l];
              if (until_eof) slot->parts[i] += '\n';
            }
            if (--slot->awaiting == 0) (this->*finish)(slot);
          }});
    }
    if (slot->awaiting == 0) (this->*finish)(slot);
  }

  // ---- HTTP ----------------------------------------------------------------

  /// A locally answered HTTP error: the §3 error line with its status.
  void http_error(ClientConn& c, int status, const std::string& id,
                  const std::string& cmd, const std::string& error,
                  bool close_conn) {
    auto slot = push_slot(c, cmd, id);
    slot->http = true;
    slot->http_status = status;
    slot->text = error_line(id, cmd, error);
    slot->http_close = close_conn;
    slot->ready = true;
  }

  void handle_http_request(ClientConn& c, const HttpRequest& req) {
    if (req.method == "GET" && req.target == "/metrics") {
      auto slot = push_slot(c, "metrics", "");
      slot->http = true;
      slot->content_type = "text/plain; version=0.0.4; charset=utf-8";
      slot->http_close = req.close;
      fan_out(c, slot, Verb::kMetrics, "");
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
    // The worker's full parse runs here too, so every parse error maps to
    // 400 instead of being forwarded: HTTP callers get status-code
    // semantics, line callers get the worker's canonical error line.
    ParsedRequest request;
    try {
      request = parse_request(name, Params::parse(tokens), cfg.router.train_steps_cap);
    } catch (const std::exception& e) {
      http_error(c, 400, id, name, e.what(), req.close);
      return;
    }

    auto slot = push_slot(c, name, id);
    slot->http = true;
    slot->http_close = req.close;
    if (verb->route == VerbSpec::Route::kFanOut) {
      fan_out(c, slot, verb->verb, line);
    } else {
      slot->shard = ring.shard_for(request.spec.key());
      forward_to_worker(c, slot, slot->shard, line);
    }
  }

  // ---- client IO -----------------------------------------------------------

  void process_client_input(ClientConn& c) {
    if (c.mode == ClientConn::Mode::kUnknown) {
      switch (sniff_transport(c.in)) {
        case TransportSniff::kUndecided:
          if (c.input_eof) c.mode = ClientConn::Mode::kLine;  // short EOF
          else return;
          break;
        case TransportSniff::kHttp:
          c.mode = ClientConn::Mode::kHttp;
          break;
        case TransportSniff::kLine:
          c.mode = ClientConn::Mode::kLine;
          break;
      }
    }

    if (c.mode == ClientConn::Mode::kLine) {
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
        c.fd, c.in, c.mode == ClientConn::Mode::kHttp ? 0 : kMaxLineBytes,
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
      if (c.mode == ClientConn::Mode::kHttp) {
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
      PendingRead& pr = link.reads.front();
      if (pr.until_eof) {
        link.multi.push_back(std::move(line));
        if (link.multi.back() != "# EOF") continue;
        auto done = std::move(pr.done);
        auto lines = std::move(link.multi);
        link.multi.clear();
        link.reads.pop_front();
        done(std::move(lines), true);
      } else {
        auto done = std::move(pr.done);
        link.reads.pop_front();
        done({std::move(line)}, true);
      }
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
    auto reads = std::move(link.reads);
    link.reads.clear();
    for (auto& pr : reads) pr.done({}, false);
  }

  // ---- main loop -----------------------------------------------------------

  /// One loop pass: sleeps until a socket or pidfd is ready, request_stop()
  /// wakes it, or the next worker deadline (or `until`) passes; then
  /// serves every event and pumps every client.
  void one_cycle(bool allow_accept, bool allow_spawn,
                 Clock::time_point until = EventLoop::kNever) {
    advance_worker_states(allow_spawn);

    if (allow_accept && accepting()) {
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

    // Opportunistic link writes (freshly enqueued requests go out in this
    // pass, not the next), then drain finished links.
    for (auto& l : links) {
      if (!l->dead && !l->out.empty() && !send_pending(l->fd, l->out)) fail_link(*l);
    }
    links.erase(std::remove_if(links.begin(), links.end(),
                               [](const std::unique_ptr<Link>& l) {
                                 if (l->dead ||
                                     (l->closing && l->reads.empty())) {
                                   if (l->fd >= 0) ::close(l->fd);
                                   return true;
                                 }
                                 return false;
                               }),
                links.end());

    // Flush ready responses and sweep finished/dead clients.
    for (auto& c : clients) {
      if (c->dead) continue;
      pump_client(*c);
      if (!c->out.empty() && !send_pending(c->fd, c->out)) c->dead = true;
    }
    clients.erase(
        std::remove_if(clients.begin(), clients.end(),
                       [this](const std::unique_ptr<ClientConn>& c) {
                         if (c->dead || client_finished(*c)) {
                           drop_client(c.get());
                           return true;
                         }
                         return false;
                       }),
        clients.end());
    connections_gauge->set(static_cast<int64_t>(clients.size()));

    // Requests enqueued by the pump pass (links opened or written above)
    // go on the wire now instead of waiting for the next pass.
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
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(cfg.shutdown_grace_ms);
    auto draining = [this] {
      for (const auto& c : clients) {
        if (!c->slots.empty() || !c->out.empty()) return true;
      }
      return false;
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

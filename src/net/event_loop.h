// EventLoop: the one blocking point under both serving loops
// (SocketServer::run and the process-shard Supervisor), plus the socket
// and line-buffer plumbing the two share.
//
// Each pass a loop watch()es the fds it cares about with a handler each,
// works out its next real deadline (store TTL sweep, respawn backoff, the
// next connect to a starting worker, shutdown grace; kNever when none),
// wait()s until an fd is ready, wake() is called, or the deadline passes,
// and dispatch()es the ready handlers. There is no fixed tick. wake() is
// one write(2) to an eventfd -- safe from any thread and from a signal
// handler -- for the events no fd reports: engine results, model builds,
// request_stop().
#pragma once

#include <poll.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace emmark {

/// Hard cap on one protocol line: past this without a newline the peer is
/// not speaking the protocol and the connection is dropped.
constexpr size_t kMaxLineBytes = 1 << 20;

class EventLoop {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr Clock::time_point kNever = Clock::time_point::max();

  EventLoop();  // throws std::runtime_error if the eventfd cannot open
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Makes the current or next wait() return. Async-signal-safe.
  void wake() const;
  /// Watches `fd` for `events` until the next dispatch(), which hands the
  /// revents to `on_ready` (a handler must not watch()).
  void watch(int fd, short events, std::function<void(short)> on_ready);
  /// Blocks until a watched fd is ready, a wake() arrives, or `deadline`
  /// passes; consumes pending wakeups. false (watches dropped) on a poll
  /// error other than EINTR.
  bool wait(Clock::time_point deadline = kNever);
  /// Runs the ready fds' handlers in watch order and drops every watch.
  void dispatch();

 private:
  int wake_fd_;
  std::vector<pollfd> fds_;  // watched fds (wait() appends the eventfd)
  std::vector<std::function<void(short)>> handlers_;
};

/// Listening sockets, nonblocking and close-on-exec; both throw
/// std::runtime_error. listen_tcp returns the bound port in `port` (0 picks
/// an ephemeral one); listen_unix unlinks a stale file at `path` first.
int listen_tcp(const std::string& addr, uint16_t& port);
int listen_unix(const std::string& path);

/// Nonblocking, close-on-exec connection to a listening Unix socket, or -1
/// (nobody listening yet). The connect never waits for accept().
int connect_unix(const std::string& path);

/// Accepts every pending connection, handing each fd (nonblocking,
/// close-on-exec, TCP_NODELAY on TCP) to `on_fd`.
void accept_pending(int listen_fd, const std::function<void(int)>& on_fd);

enum class RecvStatus { kOpen, kEof, kError };

/// Appends readable bytes to `buf` until the socket would block or
/// `enough()` (checked per chunk) holds -- kOpen -- or the peer closed
/// (kEof) or failed (kError). With `max_line` > 0, a buffer past it with
/// no newline is kError too.
RecvStatus recv_pending(int fd, std::string& buf, size_t max_line = 0,
                        const std::function<bool()>& enough = {});

/// Sends from the front of `out` until it is empty or the socket would
/// block; false on a hard error.
bool send_pending(int fd, std::string& out);

/// Pops the next request line off `buf` (no '\n', a trailing '\r'
/// dropped). At `eof` an unterminated remainder is a line too, as with
/// std::getline. false when no line is available.
bool pop_line(std::string& buf, bool eof, std::string& line);

}  // namespace emmark

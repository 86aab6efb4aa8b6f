// Conn: one client connection's state machine for the socket server.
//
// Owns the non-blocking fd, the partial-line read buffer, the outgoing
// write buffer, and the connection's RequestRouter::Session. The server's
// event loop drives it through three entry points:
//
//   * on_readable(): drains the socket into the read buffer and feeds
//     complete lines to the session -- but only while the session's
//     in-flight count stays under the configured bound. Lines beyond the
//     bound stay buffered and wants_read() goes false, so a client that
//     pipelines faster than the engine completes is throttled by TCP
//     backpressure instead of growing an unbounded queue.
//   * on_writable(): flushes the write buffer to the socket.
//   * pump(): flushes session responses that became ready since the last
//     event (async engine completions), then resumes feeding buffered
//     lines freed up by the flush.
//
// Responses append to the write buffer in session order, so per-connection
// ordering (docs/PROTOCOL.md) holds end to end.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "cli/router.h"

namespace emmark {

class Conn {
 public:
  /// Takes ownership of `fd` (closed on destruction). `max_inflight`
  /// bounds the session's unflushed requests before reads pause.
  /// `line_tap`, if set, sees every complete line before the session does
  /// (fault-injection hook; see ServerConfig::line_tap).
  Conn(int fd, std::unique_ptr<RequestRouter::Session> session,
       size_t max_inflight,
       std::function<void(const std::string&)> line_tap = {});
  ~Conn();

  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }

  /// Poll interest: reads pause at EOF/quit and while at the in-flight
  /// bound; writes only while output is queued.
  bool wants_read() const;
  bool wants_write() const { return !out_buf_.empty(); }

  /// Drains readable bytes and feeds complete lines (within the in-flight
  /// bound). Returns false when the connection is dead (peer reset).
  bool on_readable();

  /// Flushes queued output. Returns false when the connection is dead.
  bool on_writable();

  /// Flushes ready session responses into the write buffer and feeds any
  /// buffered lines the flush unblocked.
  void pump();

  /// Blocking finish: serves any backlog throttled at the in-flight bound
  /// (alternating settle/feed passes), then settles every pending response
  /// (and the quit line if quit was seen) into the write buffer. Used at
  /// input EOF / quit and during graceful server shutdown.
  void finish();

  /// True once the conversation is over and fully flushed: input finished
  /// (EOF or quit), the session settled, and the write buffer empty.
  bool done() const;

  /// Best-effort blocking flush of the remaining write buffer (graceful
  /// shutdown path; poll()s for writability with a bounded wait).
  void flush_blocking();

 private:
  /// Non-blocking recv into the read buffer (respecting the in-flight
  /// pause and the max-line cap). Returns false when the connection must
  /// be dropped.
  bool drain_socket();
  void feed_buffered_lines();

  int fd_;
  std::unique_ptr<RequestRouter::Session> session_;
  size_t max_inflight_;
  std::function<void(const std::string&)> line_tap_;
  std::string in_buf_;
  std::string out_buf_;
  bool input_eof_ = false;   // peer closed its write side
  bool finished_ = false;    // session settled (finish() ran)
  RequestRouter::LineSink sink_;
};

}  // namespace emmark

#include "net/conn.h"

#include <errno.h>
#include <poll.h>
#include <unistd.h>

#include <utility>

#include "net/event_loop.h"

namespace emmark {

Conn::Conn(int fd, std::unique_ptr<RequestRouter::Session> session,
           size_t max_inflight,
           std::function<void(const std::string&)> line_tap)
    : fd_(fd),
      session_(std::move(session)),
      max_inflight_(max_inflight == 0 ? 1 : max_inflight),
      line_tap_(std::move(line_tap)) {
  sink_ = [this](const std::string& line) {
    out_buf_ += line;
    out_buf_ += '\n';
  };
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

bool Conn::wants_read() const {
  return !input_eof_ && !session_->quit_seen() &&
         session_->inflight() < max_inflight_;
}

void Conn::feed_buffered_lines() {
  // At EOF a trailing unterminated line is still fed (matching
  // std::getline in the stdio daemon).
  std::string line;
  while (!session_->quit_seen() && session_->inflight() < max_inflight_ &&
         pop_line(in_buf_, input_eof_, line)) {
    if (line_tap_) line_tap_(line);
    session_->handle_line(line, sink_);
  }
  // Anything after quit is not part of the protocol.
  if (session_->quit_seen()) in_buf_.clear();
  // Input is over (EOF or quit), every buffered line was consumed, and
  // nothing is pending: end the session. Waiting for inflight() to reach
  // zero (via pump cycles) instead of settling here keeps the blocking
  // flush off the event loop -- one connection's quit must not starve the
  // others while its last requests drain.
  if (!finished_ && in_buf_.empty() && (input_eof_ || session_->quit_seen()) &&
      session_->inflight() == 0) {
    session_->finish(sink_);  // instant: nothing left to wait for
    finished_ = true;
  }
}

bool Conn::drain_socket() {
  // Stop slurping once the session is saturated; the unread remainder
  // stays in the kernel buffer and throttles the peer.
  const RecvStatus status = recv_pending(
      fd_, in_buf_, kMaxLineBytes,
      [this] { return session_->inflight() >= max_inflight_; });
  if (status == RecvStatus::kEof) input_eof_ = true;
  return status != RecvStatus::kError;  // reset, or an oversized line
}

bool Conn::on_readable() {
  if (!drain_socket()) return false;
  feed_buffered_lines();
  return true;
}

bool Conn::on_writable() { return send_pending(fd_, out_buf_); }

void Conn::pump() {
  session_->poll(sink_);
  feed_buffered_lines();
}

void Conn::finish() {
  if (finished_) return;
  // Serve the backlog that was throttled at the in-flight bound before
  // ending the session: re-drain the socket (bytes may still sit in the
  // kernel buffer from a paused read), blocking-settle to free in-flight
  // slots, feed the next lines, repeat until no complete line remains.
  // Without this, a graceful shutdown would silently drop requests the
  // client had already pipelined past the bound.
  // (feed_buffered_lines can settle the session itself once the input is
  // over -- the finished_ checks keep finish() from running twice.)
  while (!finished_ && !session_->quit_seen()) {
    if (!input_eof_) (void)drain_socket();  // best-effort; errors just stop intake
    if (in_buf_.find('\n') == std::string::npos) break;
    session_->settle(sink_);
    feed_buffered_lines();
  }
  if (!finished_) {
    session_->finish(sink_);
    finished_ = true;
  }
}

bool Conn::done() const {
  return finished_ && out_buf_.empty();
}

void Conn::flush_blocking() {
  while (!out_buf_.empty()) {
    struct pollfd pfd = {fd_, POLLOUT, 0};
    const int rc = ::poll(&pfd, 1, /*timeout_ms=*/1000);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return;  // peer gone or stuck; shutdown must not hang
    if (!on_writable()) return;
  }
}

}  // namespace emmark

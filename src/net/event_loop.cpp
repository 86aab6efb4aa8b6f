#include "net/event_loop.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <stdexcept>

namespace emmark {

namespace {

bool unix_address(const std::string& path, sockaddr_un& addr) {
  if (path.size() >= sizeof(addr.sun_path)) return false;
  addr = {};
  addr.sun_family = AF_UNIX;
  ::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  return true;
}

int listen_on(int domain, const void* addr, socklen_t len,
              const std::string& where) {
  const int fd = ::socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket(): " + std::string(strerror(errno)));
  const int one = 1;
  if (domain == AF_INET) ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, static_cast<const sockaddr*>(addr), len) < 0 ||
      ::listen(fd, SOMAXCONN) < 0) {
    const std::string why = strerror(errno);
    ::close(fd);
    throw std::runtime_error("bind/listen on " + where + ": " + why);
  }
  return fd;
}

}  // namespace

EventLoop::EventLoop() : wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (wake_fd_ < 0) throw std::runtime_error("eventfd(): " + std::string(strerror(errno)));
}

EventLoop::~EventLoop() { ::close(wake_fd_); }

void EventLoop::wake() const {
  const uint64_t one = 1;
  // EAGAIN (counter saturated) still leaves the fd readable: nothing lost.
  const ssize_t rc = ::write(wake_fd_, &one, sizeof(one));
  (void)rc;
}

void EventLoop::watch(int fd, short events,
                      std::function<void(short)> on_ready) {
  fds_.push_back({fd, events, 0});
  handlers_.push_back(std::move(on_ready));
}

bool EventLoop::wait(Clock::time_point deadline) {
  int timeout_ms = -1;
  if (deadline != kNever) {
    // Rounded up: waking a hair early would only cost one more pass.
    const int64_t left =
        std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now()).count();
    timeout_ms = static_cast<int>(std::clamp<int64_t>(left, 0, INT_MAX));
  }
  fds_.push_back({wake_fd_, POLLIN, 0});
  const int rc = ::poll(fds_.data(), fds_.size(), timeout_ms);
  const int err = errno;
  if (rc > 0 && (fds_.back().revents & POLLIN)) {
    // Consumed before the caller looks at shared state, so a wake() racing
    // with that look leaves the fd readable for the next wait().
    uint64_t count = 0;
    const ssize_t n = ::read(wake_fd_, &count, sizeof(count));
    (void)n;
  }
  fds_.pop_back();
  if (rc >= 0 || err == EINTR) return true;
  fds_.clear();
  handlers_.clear();
  return false;
}

void EventLoop::dispatch() {
  for (size_t i = 0; i < fds_.size(); ++i) {
    if (fds_[i].revents != 0) handlers_[i](fds_[i].revents);
  }
  fds_.clear();
  handlers_.clear();
}

int listen_tcp(const std::string& addr, uint16_t& port) {
  sockaddr_in sin{};
  sin.sin_family = AF_INET;
  sin.sin_port = htons(port);
  if (::inet_pton(AF_INET, addr.c_str(), &sin.sin_addr) != 1) {
    throw std::runtime_error("bad bind address: " + addr);
  }
  const int fd = listen_on(AF_INET, &sin, sizeof(sin), addr + ":" + std::to_string(port));
  socklen_t len = sizeof(sin);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sin), &len) == 0) {
    port = ntohs(sin.sin_port);
  }
  return fd;
}

int listen_unix(const std::string& path) {
  sockaddr_un addr;
  if (!unix_address(path, addr)) {
    throw std::runtime_error("unix socket path too long: " + path);
  }
  ::unlink(path.c_str());  // stale socket from a crashed run
  return listen_on(AF_UNIX, &addr, sizeof(addr), path);
}

int connect_unix(const std::string& path) {
  sockaddr_un addr;
  if (!unix_address(path, addr)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

void accept_pending(int listen_fd, const std::function<void(int)>& on_fd) {
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (no more pending) or a transient accept error
    }
    const int one = 1;
    // Fails harmlessly (EOPNOTSUPP) on a Unix socket.
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    on_fd(fd);
  }
}

RecvStatus recv_pending(int fd, std::string& buf, size_t max_line,
                        const std::function<bool()>& enough) {
  char chunk[8192];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf.append(chunk, static_cast<size_t>(n));
      // A newline-free stream must not grow the buffer without bound: the
      // in-flight throttles only bite on complete lines.
      if (max_line > 0 && buf.size() > max_line &&
          buf.find('\n') == std::string::npos) {
        return RecvStatus::kError;
      }
      if (enough && enough()) return RecvStatus::kOpen;
      continue;
    }
    if (n == 0) return RecvStatus::kEof;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return RecvStatus::kOpen;
    if (errno != EINTR) return RecvStatus::kError;
  }
}

bool send_pending(int fd, std::string& out) {
  while (!out.empty()) {
    const ssize_t n = ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      out.erase(0, static_cast<size_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n == 0 || errno != EINTR) {
      return false;
    }
  }
  return true;
}

bool pop_line(std::string& buf, bool eof, std::string& line) {
  const size_t nl = buf.find('\n');
  if (nl == std::string::npos) {
    if (!eof || buf.empty()) return false;
    line = std::move(buf);
    buf.clear();
  } else {
    line = buf.substr(0, nl);
    buf.erase(0, nl + 1);
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

}  // namespace emmark

#include "net/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <stdexcept>

namespace emmark {

LineClient::LineClient(const std::string& host, uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket(): " + std::string(strerror(errno)));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("bad address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string why = strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("connect to " + host + ":" + std::to_string(port) +
                             ": " + why);
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

void LineClient::send_line(const std::string& line) {
  std::string wire = line;
  wire += '\n';
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n =
        ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("send: " + std::string(strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
}

bool LineClient::recv_line(std::string& line) {
  for (;;) {
    const size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf_.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0 && !buf_.empty()) {  // unterminated trailing data
      line = std::move(buf_);
      buf_.clear();
      return true;
    }
    return false;
  }
}

void LineClient::reset() {
  if (fd_ < 0) return;
  struct linger hard = {};
  hard.l_onoff = 1;
  hard.l_linger = 0;
  ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  ::close(fd_);
  fd_ = -1;
}

std::vector<std::string> LineClient::recv_until(const std::string& terminator) {
  std::vector<std::string> lines;
  std::string line;
  for (;;) {
    if (!recv_line(line)) {
      throw std::runtime_error("server closed after " +
                               std::to_string(lines.size()) +
                               " lines without \"" + terminator + "\"");
    }
    lines.push_back(line);
    if (line == terminator) return lines;
  }
}

std::vector<std::string> LineClient::roundtrip(
    const std::vector<std::string>& lines, size_t expect) {
  for (const std::string& line : lines) send_line(line);
  std::vector<std::string> responses;
  responses.reserve(expect);
  std::string response;
  while (responses.size() < expect) {
    if (!recv_line(response)) {
      throw std::runtime_error(
          "server closed after " + std::to_string(responses.size()) + " of " +
          std::to_string(expect) + " responses");
    }
    responses.push_back(response);
  }
  return responses;
}

}  // namespace emmark

// LineClient: a minimal blocking loopback client for the socket server.
//
// Speaks the newline-delimited protocol (docs/PROTOCOL.md) for tests and
// benches: send request lines, read response lines, detect EOF. Not a
// production client -- just enough to drive emmark_cli serve end to end
// from the same process (tests/test_server.cpp, bench_engine_throughput's
// socket phase).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace emmark {

class LineClient {
 public:
  /// Connects (blocking) to host:port; throws std::runtime_error on
  /// failure.
  LineClient(const std::string& host, uint16_t port);
  ~LineClient();

  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Sends one request line (newline appended). Throws on a dead socket.
  void send_line(const std::string& line);

  /// Blocks for the next complete response line. Returns false on EOF
  /// with no buffered data (server closed the connection).
  bool recv_line(std::string& line);

  /// Hard close with SO_LINGER 0: the kernel sends RST instead of FIN, so
  /// the server observes a connection reset rather than an orderly EOF.
  /// For tests that exercise dead-peer handling; the client is unusable
  /// afterwards.
  void reset();

  /// Blocks until a line equal to `terminator` arrives; returns every line
  /// read including the terminator. For multi-line responses framed by a
  /// sentinel line (the `metrics` verb ends with "# EOF"). Throws if the
  /// server closes before the terminator.
  std::vector<std::string> recv_until(const std::string& terminator);

  /// Convenience: send every line, then read exactly `expect` responses.
  /// Throws if the server closes early.
  std::vector<std::string> roundtrip(const std::vector<std::string>& lines,
                                     size_t expect);

 private:
  int fd_ = -1;
  std::string buf_;
};

}  // namespace emmark

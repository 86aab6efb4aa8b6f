// Minimal HTTP/1.1 support for the supervisor front door.
//
// The supervisor serves both transports on one port: the first bytes of a
// connection decide whether it speaks the newline-delimited protocol or
// HTTP (sniff_transport). HTTP requests map onto protocol verbs
// (docs/PROTOCOL.md §8): `GET /metrics` is the `metrics` verb's
// Prometheus exposition, `POST /v1/<verb>` carries one request line's
// parameters as the body. This is deliberately not a general HTTP stack:
// Content-Length framing only (no chunked encoding, no trailers), no
// TLS, loopback-oriented.
#pragma once

#include <map>
#include <string>

namespace emmark {

struct HttpRequest {
  std::string method;   // e.g. "GET"
  std::string target;   // e.g. "/metrics"
  std::string version;  // e.g. "HTTP/1.1"
  std::map<std::string, std::string> headers;  // keys lowercased
  std::string body;
  /// True when the connection must close after the response
  /// (`Connection: close`, or HTTP/1.0 without `keep-alive`).
  bool close = false;
};

/// First-bytes transport sniff for the shared front door.
enum class TransportSniff {
  kUndecided,  // buffer is a proper prefix of an HTTP method token
  kHttp,       // starts with a known HTTP method + space
  kLine,       // anything else: the newline-delimited protocol
};
TransportSniff sniff_transport(const std::string& buf);

/// Incremental HTTP/1.1 request parser over a growing buffer.
class HttpParser {
 public:
  enum class Status {
    kNeedMore,  // incomplete; call again after more bytes arrive
    kRequest,   // one full request consumed from `buf` into `out`
    kError,     // malformed or over limits; `error` says why, close conn
  };

  /// Attempts to parse one request from the front of `buf`. On kRequest
  /// the parsed bytes are erased from `buf` (pipelined requests keep
  /// working) and parser state resets for the next request.
  Status parse(std::string& buf, HttpRequest& out, std::string* error);

  /// Limits: a header block or a body beyond these is a protocol error
  /// (mirrors the line transport's 1 MiB max-line rule).
  static constexpr size_t kMaxHeaderBytes = 64 * 1024;
  static constexpr size_t kMaxBodyBytes = 1 << 20;
};

/// Renders a full response with Content-Length framing.
std::string http_response(int status, const std::string& content_type,
                          const std::string& body, bool keep_alive);

}  // namespace emmark

#include "net/http.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace emmark {

namespace {

const char* const kMethods[] = {"GET",    "POST",  "HEAD", "PUT",
                                "DELETE", "OPTIONS", "PATCH"};

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

std::string trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

}  // namespace

TransportSniff sniff_transport(const std::string& buf) {
  if (buf.empty()) return TransportSniff::kUndecided;
  bool prefix_of_method = false;
  for (const char* m : kMethods) {
    const std::string with_space = std::string(m) + ' ';
    const size_t n = std::min(buf.size(), with_space.size());
    if (buf.compare(0, n, with_space, 0, n) == 0) {
      if (buf.size() >= with_space.size()) return TransportSniff::kHttp;
      prefix_of_method = true;
    }
  }
  // Protocol verbs are lowercase, so a line-mode client can never look
  // like a method prefix; no complete line needed to decide.
  return prefix_of_method ? TransportSniff::kUndecided : TransportSniff::kLine;
}

HttpParser::Status HttpParser::parse(std::string& buf, HttpRequest& out,
                                     std::string* error) {
  const size_t head_end = buf.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    if (buf.size() > kMaxHeaderBytes) {
      if (error) *error = "header block too large";
      return Status::kError;
    }
    return Status::kNeedMore;
  }
  if (head_end > kMaxHeaderBytes) {
    if (error) *error = "header block too large";
    return Status::kError;
  }

  out = HttpRequest{};
  const std::string head = buf.substr(0, head_end);
  size_t line_start = 0;
  size_t line_no = 0;
  while (line_start <= head.size()) {
    size_t line_end = head.find("\r\n", line_start);
    if (line_end == std::string::npos) line_end = head.size();
    const std::string line = head.substr(line_start, line_end - line_start);
    line_start = line_end + 2;
    if (line_no++ == 0) {
      const size_t sp1 = line.find(' ');
      const size_t sp2 = (sp1 == std::string::npos) ? std::string::npos
                                                    : line.find(' ', sp1 + 1);
      if (sp1 == std::string::npos || sp2 == std::string::npos) {
        if (error) *error = "malformed request line";
        return Status::kError;
      }
      out.method = line.substr(0, sp1);
      out.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
      out.version = line.substr(sp2 + 1);
      if (out.version.rfind("HTTP/1.", 0) != 0) {
        if (error) *error = "unsupported HTTP version: " + out.version;
        return Status::kError;
      }
      continue;
    }
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      if (error) *error = "malformed header: " + line;
      return Status::kError;
    }
    out.headers[lower(trim(line.substr(0, colon)))] =
        trim(line.substr(colon + 1));
  }

  size_t body_len = 0;
  if (auto it = out.headers.find("content-length"); it != out.headers.end()) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0') {
      if (error) *error = "bad Content-Length: " + it->second;
      return Status::kError;
    }
    body_len = static_cast<size_t>(v);
    if (body_len > kMaxBodyBytes) {
      if (error) *error = "body too large";
      return Status::kError;
    }
  } else if (out.headers.count("transfer-encoding")) {
    if (error) *error = "chunked transfer encoding not supported";
    return Status::kError;
  }

  const size_t total = head_end + 4 + body_len;
  if (buf.size() < total) return Status::kNeedMore;
  out.body = buf.substr(head_end + 4, body_len);
  buf.erase(0, total);

  const std::string conn = lower([&] {
    auto it = out.headers.find("connection");
    return it == out.headers.end() ? std::string() : it->second;
  }());
  if (out.version == "HTTP/1.0") {
    out.close = (conn != "keep-alive");
  } else {
    out.close = (conn == "close");
  }
  return Status::kRequest;
}

namespace {

const char* http_status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

}  // namespace

std::string http_response(int status, const std::string& content_type,
                          const std::string& body, bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                    http_status_text(status) + "\r\n";
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  out += "\r\n";
  out += body;
  return out;
}

}  // namespace emmark

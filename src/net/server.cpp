#include "net/server.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "net/conn.h"

namespace emmark {

SocketServer::SocketServer(RequestRouter& router, ServerConfig config)
    : router_(router), config_(std::move(config)) {
  obs::MetricsRegistry& registry = router_.metrics_registry();
  poll_cycle_hist_ = &registry.histogram(
      "emmark_server_poll_cycle_seconds",
      "Busy time per server poll cycle (event + pump passes, excluding the "
      "poll wait).");
  connections_gauge_ = &registry.gauge("emmark_server_connections",
                                       "Connections currently open.");
  accepted_counter_ = &registry.counter(
      "emmark_server_connections_accepted_total",
      "Connections accepted since start.");

  if (config_.unix_path.empty()) {
    port_ = config_.port;
    listen_fd_ = listen_tcp(config_.bind_addr, port_);
  } else {
    listen_fd_ = listen_unix(config_.unix_path);
  }
  router_.set_wakeup([loop = &loop_] { loop->wake(); });
}

SocketServer::~SocketServer() {
  // Before loop_ closes its eventfd: an engine worker may still finish
  // after the server is gone, and must never write to a stale fd number.
  router_.set_wakeup({});
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());
}

int SocketServer::run() {
  std::vector<Conn*> dead;
  while (!stop_.load(std::memory_order_relaxed)) {
    dead.clear();
    // Connections accepted this pass get their first watch next pass.
    loop_.watch(listen_fd_, POLLIN, [this](short) {
      accept_pending(listen_fd_, [this](int fd) {
        conns_.push_back(std::make_unique<Conn>(fd, router_.open_session(),
                                                config_.max_inflight_per_conn,
                                                config_.line_tap));
        accepted_counter_->inc();
      });
    });
    for (const auto& conn : conns_) {
      Conn* c = conn.get();
      short events = 0;
      if (c->wants_read()) events |= POLLIN;
      if (c->wants_write()) events |= POLLOUT;
      loop_.watch(c->fd(), events, [c, &dead](short revents) {
        if (((revents & (POLLIN | POLLHUP | POLLERR)) && !c->on_readable()) ||
            ((revents & POLLOUT) && !c->on_writable())) {
          dead.push_back(c);
        }
      });
    }

    // Sleep until a socket is ready, an engine result or model build
    // lands (the router's wakeup), request_stop(), or the TTL sweep is due.
    if (!loop_.wait(router_.next_sweep_at())) break;
    const auto busy_start = std::chrono::steady_clock::now();

    // Event pass over the watched sockets, then a pump pass for everyone:
    // async completions must reach idle connections too, and a flush may
    // unblock buffered lines.
    loop_.dispatch();
    for (auto& conn : conns_) {
      if (std::find(dead.begin(), dead.end(), conn.get()) != dead.end()) continue;
      conn->pump();
      if (conn->wants_write() && !conn->on_writable()) dead.push_back(conn.get());
    }

    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [&](const std::unique_ptr<Conn>& c) {
                                  return c->done() ||
                                         std::find(dead.begin(), dead.end(),
                                                   c.get()) != dead.end();
                                }),
                 conns_.end());
    connection_count_.store(conns_.size(), std::memory_order_relaxed);
    connections_gauge_->set(static_cast<int64_t>(conns_.size()));
    router_.sweep_stores();
    poll_cycle_hist_->record_duration(std::chrono::steady_clock::now() -
                                      busy_start);
  }

  // Graceful shutdown: no new connections, then settle every live session
  // -- in-flight requests complete, their responses flush, sockets close.
  ::close(listen_fd_);
  listen_fd_ = -1;
  for (auto& conn : conns_) {
    // One final drain of already-received input before settling. A false
    // return means the peer is gone (reset / EOF mid-request): skip the
    // settle entirely -- finishing would park the shutdown on engine
    // futures and then write to a dead socket.
    if (!conn->on_readable()) continue;
    conn->finish();
    conn->flush_blocking();
  }
  conns_.clear();
  connection_count_.store(0, std::memory_order_relaxed);
  router_.drain();
  return 0;
}

}  // namespace emmark

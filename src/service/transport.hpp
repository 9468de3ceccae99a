// suu::serve transports — pumping wire-protocol bytes into an Engine.
//
// Both transports speak the same line-delimited protocol: each complete
// line is submitted to the engine, replies are written back as they
// complete (possibly out of request order — the id field is the client's
// correlation handle; a streamed estimate writes several seq-ordered lines
// for one id, interleavable with other replies), and every outstanding
// reply is drained before the transport lets go of its state, so no
// callback can outlive it.
//
//   serve_stream — std::istream/std::ostream pair; stdio mode and
//                  in-memory tests.
//   TcpServer    — loopback-only listener; every accepted connection is
//                  multiplexed onto one epoll EventLoop
//                  (service/eventloop.hpp), so concurrent session count is
//                  bounded by fds, not threads. Any other connected socket
//                  (a socketpair, an inherited fd) is served by
//                  EventLoop::add_connection.
//
// Session hygiene: each connection runs inside an engine client scope
// (Engine::begin_client/end_client), so instance handles opened over it
// are released — and their PrecomputeCache pins dropped — when the
// connection ends for ANY reason: clean EOF, write error, over-long line,
// or idle timeout. A peer that vanishes without close_instance cannot
// leak pinned cache entries.
//
// Limits (max_line_bytes, max_outbound_bytes, idle_timeout_ms) come from
// the engine's Config; see service/eventloop.hpp for how the loop applies
// them.
//
// Fault injection (tests and the fan-out demo only): TcpServer accepts a
// service::FaultSpec whose deterministic triggers (delay, drop after N
// bytes, truncate reply line K, _exit mid-stream) fire on the reply write
// path — see service/fault.hpp.
//
// Shutdown: when the engine processes a shutdown request its stopping()
// flag flips and its shutdown hook runs. serve_stream stops reading once
// stopping() is observed — but a read already blocked on an idle input
// only wakes when bytes or EOF arrive, so stdio clients are expected to
// close their input after a shutdown request. TcpServer has a real
// wakeup: its hook shuts the listener down and stops the event loop, which
// stops reading everywhere, drains queued replies (the shutdown
// acknowledgment included), and returns — one wire shutdown winds down the
// whole server without client help.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>

#include "service/engine.hpp"
#include "service/fault.hpp"

namespace suu::service {

class EventLoop;

/// Serve until EOF on `in` or engine shutdown. Responses are flushed per
/// line. Drains outstanding replies before returning. Runs inside a client
/// scope: handles opened on this stream are released when it ends.
void serve_stream(Engine& engine, std::istream& in, std::ostream& out);

/// Loopback (127.0.0.1) TCP listener over an Engine.
class TcpServer {
 public:
  /// Bind and listen; port 0 picks an ephemeral port (see port()).
  /// Installs the engine's shutdown hook so a shutdown request stops the
  /// server. Throws util::CheckError on socket failures. `fault` applies
  /// (with fresh per-connection state) to every accepted connection.
  TcpServer(Engine& engine, std::uint16_t port = 0,
            const FaultSpec& fault = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// Serve: every accepted connection is multiplexed onto one epoll
  /// EventLoop (nonblocking reads/writes, bounded outbound queues, stream
  /// cancellation, idle timers — see service/eventloop.hpp). The loop's
  /// limits come from the engine's Config (max_line_bytes,
  /// max_outbound_bytes, idle_timeout_ms). Returns after stop() (or
  /// engine shutdown), once every connection has drained and closed.
  void run();

  /// Stop accepting and reading; queued replies still drain, then run()
  /// returns. Safe to call from any thread, any number of times.
  void stop();

 private:
  Engine& engine_;
  FaultSpec fault_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::mutex mu_;  // guards loop_, stopped_
  EventLoop* loop_ = nullptr;  // run()'s loop, while run() is live
  bool stopped_ = false;
};

/// Loopback (127.0.0.1) Prometheus scrape endpoint (`suu_serve
/// --metrics-port`): a tiny close-delimited HTTP/1.0 responder. Every
/// accepted connection gets one `200 OK` + Engine::metrics_text() body and
/// is closed — enough for Prometheus, curl, and tools/suu_metrics, with no
/// request parsing to harden. Runs its own accept thread; the constructor
/// binds (port 0 picks an ephemeral port) and the destructor stops it.
class MetricsServer {
 public:
  /// `body` (tests only) overrides Engine::metrics_text() as the scrape
  /// body — e.g. to make the response large enough to exercise the send
  /// timeout against a stalled peer.
  MetricsServer(Engine& engine, std::uint16_t port = 0,
                std::function<std::string()> body = nullptr);
  ~MetricsServer();

  MetricsServer(const MetricsServer&) = delete;
  MetricsServer& operator=(const MetricsServer&) = delete;

  std::uint16_t port() const noexcept { return port_; }
  void stop();

 private:
  Engine& engine_;
  std::function<std::string()> body_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::mutex mu_;
  bool stopped_ = false;
  std::thread accept_thread_;
};

}  // namespace suu::service

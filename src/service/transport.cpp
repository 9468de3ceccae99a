#include "service/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <thread>
#include <utility>

#include "service/eventloop.hpp"
#include "util/check.hpp"

namespace suu::service {
namespace {

/// Outstanding-reply tracker for serve_stream: every submit is balanced by
/// a done() inside its reply callback, and the loop drains to zero before
/// its locals go out of scope.
struct Outstanding {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t count = 0;

  void add() {
    std::lock_guard<std::mutex> lock(mu);
    ++count;
  }
  void done() {
    // Notify while still holding the lock: the draining thread destroys
    // this latch the moment it observes count == 0, so an after-unlock
    // notify could touch a destroyed condition variable.
    std::lock_guard<std::mutex> lock(mu);
    --count;
    cv.notify_all();
  }
  void drain() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return count == 0; });
  }
};

/// Strip a trailing '\r' (CRLF tolerance) and report whether anything is
/// left to submit.
bool normalize_line(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return !line.empty();
}

}  // namespace

void serve_stream(Engine& engine, std::istream& in, std::ostream& out) {
  std::mutex write_mu;
  Outstanding pending;
  const std::uint64_t client = engine.begin_client();
  std::string line;
  while (!engine.stopping() && std::getline(in, line)) {
    if (!normalize_line(line)) continue;
    pending.add();
    engine.submit(
        std::move(line),
        [&](std::string&& resp, bool last) {
          {
            std::lock_guard<std::mutex> lock(write_mu);
            out << resp << '\n';
            out.flush();
          }
          if (last) pending.done();
        },
        client);
    line.clear();
  }
  pending.drain();
  engine.end_client(client);
}

TcpServer::TcpServer(Engine& engine, std::uint16_t port,
                     const FaultSpec& fault)
    : engine_(engine), fault_(fault) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  SUU_CHECK_MSG(listen_fd_ >= 0,
                "socket() failed: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, always
  addr.sin_port = htons(port);
  SUU_CHECK_MSG(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof addr) == 0,
                "bind to 127.0.0.1:" << port
                                     << " failed: " << std::strerror(errno));
  // Deep backlog: the concurrency bench opens ~1000 connections in a
  // burst, and the epoll loop accepts them all from one thread.
  SUU_CHECK_MSG(::listen(listen_fd_, 1024) == 0,
                "listen failed: " << std::strerror(errno));
  socklen_t len = sizeof addr;
  SUU_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                          &len) == 0);
  port_ = ntohs(addr.sin_port);
  engine_.set_shutdown_hook([this] { stop(); });
}

TcpServer::~TcpServer() {
  engine_.set_shutdown_hook(nullptr);
  stop();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void TcpServer::run() {
  EventLoop loop(engine_, fault_);
  loop.add_listener(listen_fd_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;  // stop() raced ahead of run()
    loop_ = &loop;
  }
  loop.run();
  std::lock_guard<std::mutex> lock(mu_);
  loop_ = nullptr;
}

void TcpServer::stop() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_) return;
  stopped_ = true;
  // Wake the loop's accept path; the fd itself is closed in the
  // destructor, after run() has returned, so the descriptor number cannot
  // be reused early.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  // The loop stops reading everywhere but keeps writing: queued replies —
  // the shutdown acknowledgment itself when stop() runs from the engine's
  // shutdown hook — still drain to clients before run() returns.
  if (loop_ != nullptr) loop_->stop();
}

MetricsServer::MetricsServer(Engine& engine, std::uint16_t port,
                             std::function<std::string()> body)
    : engine_(engine), body_(std::move(body)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  SUU_CHECK_MSG(listen_fd_ >= 0,
                "socket() failed: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  SUU_CHECK_MSG(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof addr) == 0,
                "metrics bind to 127.0.0.1:"
                    << port << " failed: " << std::strerror(errno));
  SUU_CHECK_MSG(::listen(listen_fd_, 16) == 0,
                "metrics listen failed: " << std::strerror(errno));
  socklen_t len = sizeof addr;
  SUU_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                          &len) == 0);
  port_ = ntohs(addr.sin_port);
  accept_thread_ = std::thread([this] {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // listener shut down by stop()
      }
      // A scraper that connects but never reads must not pin this thread:
      // once the socket buffer fills, each blocking write is bounded by
      // the send timeout below and the connection is abandoned (mirroring
      // the 2s receive-side drain bound).
      timeval send_tv{};
      send_tv.tv_sec = 2;
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_tv, sizeof send_tv);
      // Serve the scrape without waiting for (or parsing) the HTTP request
      // line: HTTP/1.0 with Connection: close is delimited by EOF, so
      // writing immediately and closing is a valid exchange for every
      // scraper this endpoint targets.
      const std::string body = body_ ? body_() : engine_.metrics_text();
      std::string resp =
          "HTTP/1.0 200 OK\r\n"
          "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
          "Content-Length: " +
          std::to_string(body.size()) +
          "\r\n"
          "Connection: close\r\n\r\n";
      resp += body;
      std::size_t off = 0;
      while (off < resp.size()) {
        const ssize_t w = ::write(fd, resp.data() + off, resp.size() - off);
        if (w < 0 && errno == EINTR) continue;
        if (w <= 0) break;  // peer gone, or send timeout: stalled scraper
        off += static_cast<std::size_t>(w);
      }
      ::shutdown(fd, SHUT_WR);
      // Let the peer finish sending its request before we close, so it
      // never sees a reset ahead of the body: drain until EOF, bounded by
      // a receive timeout so a stuck peer cannot pin the accept thread.
      timeval tv{};
      tv.tv_sec = 2;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
      char drain[512];
      while (::read(fd, drain, sizeof drain) > 0) {
      }
      ::close(fd);
    }
  });
}

MetricsServer::~MetricsServer() {
  stop();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void MetricsServer::stop() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_) return;
  stopped_ = true;
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

}  // namespace suu::service

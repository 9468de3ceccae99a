#include "wire.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "service/json.hpp"

namespace perfbench {

using suu::service::Json;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (std::isinf(v[hi])) return v[hi];
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string fingerprint_hex(std::uint64_t fp) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

namespace {

/// Prefix of check_reply's verdict on a well-formed, typed error reply: a
/// failed operation, but not a reply that contradicts the request.
constexpr const char* kErrorReply = "error reply: ";

std::int64_t int_field(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  if (v == nullptr || !v->is_number()) return -1;
  return v->as_int64(key);
}

std::string str_field(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  return v != nullptr && v->is_string() ? v->as_string(key) : std::string();
}

/// Envelope checks shared by every reply line; returns the parsed line.
Json envelope(const TapeLine& line, const std::string& text,
              std::string* why) {
  Json root = Json::parse(text);
  if (!root.is_object()) {
    *why = "reply is not an object";
    return root;
  }
  const Json* id = root.find("id");
  if (id == nullptr || id->dump() != std::to_string(line.id)) {
    *why = "reply id does not match request id " + std::to_string(line.id);
  } else if (const Json* ok = root.find("ok");
             ok == nullptr || !ok->is_bool() || !ok->as_bool("ok")) {
    *why = std::string(kErrorReply) + text.substr(0, 300);
  }
  return root;
}

}  // namespace

std::string check_reply(const TapeLine& line,
                        const std::vector<std::string>& reply, double* ratio,
                        int* replications) {
  const Expect& e = line.expect;
  const std::size_t want =
      e.op == Op::Stream ? static_cast<std::size_t>(e.shards) + 1 : 1;
  std::string why;
  try {
    Json last;
    for (std::size_t i = 0; i < reply.size(); ++i) {
      last = envelope(line, reply[i], &why);
      if (!why.empty()) return why;
      if (e.op == Op::Stream) {
        if (int_field(last, "seq") != static_cast<std::int64_t>(i) ||
            int_field(last, "shards") != e.shards) {
          return "stream envelope " + std::to_string(i) + " out of order";
        }
      }
    }
    if (reply.size() != want) {
      return "expected " + std::to_string(want) + " reply lines, got " +
             std::to_string(reply.size());
    }
    if (e.op == Op::Stream) {
      const Json* done = last.find("done");
      if (done == nullptr || !done->is_bool() || !done->as_bool("done")) {
        return "stream ended without a done envelope";
      }
    }
    const Json* result = last.find("result");
    if (result == nullptr || !result->is_object()) return "no result object";
    const Json& r = *result;
    if (int_field(r, "n") != e.n || int_field(r, "m") != e.m) {
      return "n/m differ from the benchmark's instance";
    }
    switch (e.op) {
      case Op::Open:
      case Op::Update:
        if (int_field(r, "handle") != static_cast<std::int64_t>(e.handle)) {
          return "unexpected handle";
        }
        if (e.op == Op::Update &&
            str_field(r, "parent") != fingerprint_hex(e.parent)) {
          return "update parent fingerprint differs";
        }
        [[fallthrough]];
      case Op::Solve:
        if (str_field(r, "fingerprint") != fingerprint_hex(e.fingerprint)) {
          return "fingerprint differs from the benchmark's instance";
        }
        if (e.op == Op::Solve && str_field(r, "solver") != e.solver) {
          return "solver differs from the structure dispatch";
        }
        return "";
      case Op::Estimate:
      case Op::Stream: {
        if (str_field(r, "solver") != e.solver) {
          return "solver differs from the structure dispatch";
        }
        if (int_field(r, "replications") != e.replications) {
          return "replications not echoed";
        }
        if (int_field(r, "capped") != 0) return "capped replications";
        const Json* mean = r.find("mean");
        if (mean == nullptr || !mean->is_number() ||
            !std::isfinite(mean->as_double("mean"))) {
          return "no finite mean";
        }
        const Json* rat = r.find("ratio");
        if (e.lower_bound) {
          if (rat == nullptr || !rat->is_number() ||
              !std::isfinite(rat->as_double("ratio")) ||
              rat->as_double("ratio") <= 0.0) {
            return "no finite ratio";
          }
          *ratio = rat->as_double("ratio");
        }
        *replications = e.replications;
        return "";
      }
    }
  } catch (const std::exception& err) {
    return std::string("unparsable reply: ") + err.what();
  }
  return "unknown op";
}

// ------------------------------------------------------------------ client

struct Client::Conn {
  int fd = -1;
  bool dead = false;
  // In-flight request.
  const TapeLine* line = nullptr;
  std::size_t index = 0;
  std::int64_t sent_ns = 0;
  std::string out;
  std::size_t out_off = 0;
  bool want_out = false;
  std::string in;
  std::vector<std::string> reply;
  // Tape cursor.
  std::size_t pos = 0;
  bool wrapped = false;
};

Client::Client(std::uint16_t port, int connections) {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) throw std::runtime_error("epoll_create1 failed");
  conns_.resize(static_cast<std::size_t>(connections));
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error("socket failed");
    conns_[c].fd = fd;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      throw std::runtime_error("connect to the daemon failed");
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

Client::~Client() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (epfd_ >= 0) ::close(epfd_);
}

LoopResult Client::run(const std::vector<std::vector<TapeLine>>& tapes,
                       double seconds, long inject_bad_reply) {
  LoopResult res;
  const bool timed = seconds > 0.0;
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline =
      timed ? t0 + static_cast<std::int64_t>(seconds * 1e9) : 0;
  std::int64_t t_last = t0;
  std::size_t busy = 0;
  int failures_logged = 0;

  auto set_out_interest = [&](std::size_t idx, bool want) {
    Conn& c = conns_[idx];
    if (c.want_out == want) return;
    c.want_out = want;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.u64 = idx;
    ::epoll_ctl(epfd_, EPOLL_CTL_MOD, c.fd, &ev);
  };
  auto write_some = [&](std::size_t idx) {
    Conn& c = conns_[idx];
    while (c.out_off < c.out.size()) {
      const ssize_t w = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (w > 0) {
        c.out_off += static_cast<std::size_t>(w);
      } else if (w < 0 && errno == EINTR) {
        continue;
      } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        set_out_interest(idx, true);
        return true;
      } else {
        return false;
      }
    }
    set_out_interest(idx, false);
    return true;
  };
  auto fail_conn = [&](std::size_t idx, const char* what) {
    Conn& c = conns_[idx];
    if (c.line != nullptr) {
      ++res.failed;
      ++res.wrong;
      res.samples.push_back(Sample{INFINITY, static_cast<int>(idx), c.index});
      c.line = nullptr;
      --busy;
    }
    if (!c.dead) std::cerr << "perfbench: connection " << idx << ": " << what
                           << "\n";
    c.dead = true;
  };
  auto send_next = [&](std::size_t idx) {
    Conn& c = conns_[idx];
    const std::vector<TapeLine>& tape = tapes[idx];
    if (c.dead || tape.empty()) return;
    if (timed) {
      if (now_ns() >= deadline) return;
      if (c.pos == tape.size()) {
        c.pos = 0;
        if (!c.wrapped) ++res.wraps;
        c.wrapped = true;
      }
    } else if (c.pos == tape.size()) {
      return;
    }
    c.index = c.pos++;
    c.line = &tape[c.index];
    c.out = c.line->text;
    c.out.push_back('\n');
    c.out_off = 0;
    c.reply.clear();
    ++busy;
    c.sent_ns = now_ns();
    if (!write_some(idx)) fail_conn(idx, "write failed");
  };
  auto complete = [&](std::size_t idx) {
    Conn& c = conns_[idx];
    const std::int64_t t = now_ns();
    t_last = t;
    if (inject_bad_reply >= 0 &&
        res.samples.size() == static_cast<std::size_t>(inject_bad_reply)) {
      std::string& last = c.reply.back();
      const std::size_t at = last.find("\"n\":");
      if (at != std::string::npos) last.insert(at + 4, "9");
    }
    double ratio = 0.0;
    int reps = 0;
    const std::string why = check_reply(*c.line, c.reply, &ratio, &reps);
    Sample s{static_cast<double>(t - c.sent_ns) / 1e6, static_cast<int>(idx),
             c.index};
    if (why.empty()) {
      res.replications += static_cast<std::uint64_t>(reps);
      if (c.line->expect.lower_bound) res.ratios.push_back(ratio);
    } else {
      ++res.failed;
      if (why.rfind(kErrorReply, 0) != 0) ++res.wrong;
      s.latency_ms = INFINITY;
      if (failures_logged++ < 5) {
        std::cerr << "perfbench: request " << c.line->id << " ("
                  << op_name(c.line->expect.op) << "): " << why << "\n";
      }
    }
    res.samples.push_back(s);
    c.line = nullptr;
    --busy;
    send_next(idx);
  };

  for (std::size_t i = 0; i < conns_.size() && i < tapes.size(); ++i) {
    conns_[i].pos = 0;
    conns_[i].wrapped = false;
    send_next(i);
  }
  std::vector<epoll_event> events(conns_.size());
  char buf[1 << 16];
  while (busy > 0) {
    const int n = ::epoll_wait(epfd_, events.data(),
                               static_cast<int>(events.size()), 1000);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) throw std::runtime_error("epoll_wait failed");
    for (int e = 0; e < n; ++e) {
      const std::size_t idx = events[e].data.u64;
      Conn& c = conns_[idx];
      if (c.dead) continue;
      if ((events[e].events & EPOLLOUT) != 0 && !write_some(idx)) {
        fail_conn(idx, "write failed");
        continue;
      }
      if ((events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) continue;
      for (;;) {
        const ssize_t r = ::recv(c.fd, buf, sizeof buf, 0);
        if (r > 0) {
          c.in.append(buf, static_cast<std::size_t>(r));
          continue;
        }
        if (r < 0 && errno == EINTR) continue;
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        fail_conn(idx, r == 0 ? "daemon closed the connection"
                              : "read failed");
        break;
      }
      std::size_t start = 0;
      for (std::size_t nl; !c.dead &&
                           (nl = c.in.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        if (c.line == nullptr) {
          fail_conn(idx, "unsolicited reply line");
          break;
        }
        c.reply.emplace_back(c.in, start, nl - start);
        const std::string& got = c.reply.back();
        const bool last =
            c.line->expect.op != Op::Stream ||
            got.find("\"done\":true") != std::string::npos ||
            got.find("\"ok\":false") != std::string::npos;
        if (last) complete(idx);
      }
      c.in.erase(0, start);
    }
  }
  res.wall_s = static_cast<double>(t_last - t0) / 1e9;
  return res;
}

std::string Client::call(int c, const std::string& line) {
  Conn& conn = conns_[static_cast<std::size_t>(c)];
  std::string out = line + "\n";
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t w =
        ::send(conn.fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
    } else if (w < 0 && (errno == EAGAIN || errno == EINTR)) {
      continue;
    } else {
      throw std::runtime_error("write to the daemon failed");
    }
  }
  char buf[1 << 16];
  for (;;) {
    const std::size_t nl = conn.in.find('\n');
    if (nl != std::string::npos) {
      std::string reply = conn.in.substr(0, nl);
      conn.in.erase(0, nl + 1);
      return reply;
    }
    const ssize_t r = ::recv(conn.fd, buf, sizeof buf, 0);
    if (r > 0) {
      conn.in.append(buf, static_cast<std::size_t>(r));
    } else if (r < 0 && (errno == EAGAIN || errno == EINTR)) {
      ::usleep(200);
    } else {
      throw std::runtime_error("read from the daemon failed");
    }
  }
}

// ------------------------------------------------------- daemon counters

std::map<std::string, double> scrape_metrics(Client& client) {
  const Json reply =
      Json::parse(client.call(0, "{\"id\":0,\"method\":\"metrics\"}"));
  const Json* result = reply.find("result");
  if (result == nullptr || result->find("text") == nullptr) {
    throw std::runtime_error("metrics reply has no text");
  }
  std::map<std::string, double> out;
  std::istringstream is(result->find("text")->as_string("text"));
  std::string row;
  while (std::getline(is, row)) {
    if (row.empty() || row[0] == '#') continue;
    const std::size_t sp = row.rfind(' ');
    if (sp == std::string::npos) continue;
    out[row.substr(0, sp)] = std::strtod(row.c_str() + sp + 1, nullptr);
  }
  return out;
}

double histogram_delta_quantile(const std::map<std::string, double>& before,
                                const std::map<std::string, double>& after,
                                const std::string& name,
                                const std::string& label, double p) {
  // Series look like name_bucket{label,le="B"}: the finite (B, cumulative
  // count) pairs of one scrape, sorted by B.
  const std::string prefix = name + "_bucket{" + label + ",le=\"";
  auto buckets = [&](const std::map<std::string, double>& scrape) {
    std::vector<std::pair<double, double>> out;
    for (auto it = scrape.lower_bound(prefix);
         it != scrape.end() &&
         it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
      const std::string le = it->first.substr(prefix.size());
      if (le.rfind("+Inf", 0) == 0) continue;
      out.emplace_back(std::strtod(le.c_str(), nullptr), it->second);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  // A scrape renders buckets only up to its highest non-empty one; every
  // bound above that has the same cumulative count. So the `before` count
  // at a bound is that of the nearest rendered bucket at or below it.
  const auto prior = buckets(before);
  std::vector<std::pair<double, double>> cum;
  for (const auto& [bound, count] : buckets(after)) {
    double base = 0.0;
    for (const auto& [b, c] : prior) {
      if (b > bound) break;
      base = c;
    }
    cum.emplace_back(bound, count - base);
  }
  const auto count_key = name + "_count{" + label + "}";
  const auto a = after.find(count_key);
  const auto b = before.find(count_key);
  const double total = (a == after.end() ? 0.0 : a->second) -
                       (b == before.end() ? 0.0 : b->second);
  if (total <= 0.0) return 0.0;
  for (const auto& [bound, c] : cum) {
    if (c >= p * total) return bound;
  }
  return cum.empty() ? 0.0 : cum.back().first;
}

double proc_cpu_ms(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream is(stat.substr(close + 2));
  std::string field;
  // Fields after the command: state(3) ... utime(14) stime(15).
  double utime = 0.0;
  double stime = 0.0;
  for (int i = 3; i <= 15 && is >> field; ++i) {
    if (i == 14) utime = std::strtod(field.c_str(), nullptr);
    if (i == 15) stime = std::strtod(field.c_str(), nullptr);
  }
  return (utime + stime) * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double proc_rss_peak_mb(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string row;
  while (std::getline(f, row)) {
    if (row.rfind("VmHWM:", 0) == 0) {
      return std::strtod(row.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench

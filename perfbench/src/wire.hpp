// The benchmark's wire side: one thread, one epoll loop, kConnections
// loopback TCP connections to a suu_serve daemon, one outstanding request
// per connection (a closed loop). Every reply is checked against the tape
// line's Expect; a failed, refused or invalid reply counts as failed.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tape.hpp"

namespace perfbench {

/// Nanoseconds on the steady clock.
std::int64_t now_ns();

/// Linear-interpolated q-quantile (0 for no samples; +inf when the upper
/// neighbour is +inf, so failed requests stay visible).
double quantile(std::vector<double> v, double q);

/// The "0x%016x" spelling the wire uses for instance fingerprints.
std::string fingerprint_hex(std::uint64_t fp);

/// Check one request's complete reply: one line, or (streamed estimates)
/// the shard envelopes followed by the done line. Returns an empty string
/// when correct, else what was wrong ("error reply: ..." for a typed
/// error reply). `ratio` and `replications` are set
/// from a correct estimate reply.
std::string check_reply(const TapeLine& line,
                        const std::vector<std::string>& reply, double* ratio,
                        int* replications);

struct Sample {
  /// Send start to final reply newline; +inf for a failed request.
  double latency_ms = 0.0;
  int conn = 0;
  std::size_t index = 0;  ///< position in the connection's tape
};

struct LoopResult {
  std::vector<Sample> samples;  ///< in completion order
  double wall_s = 0.0;          ///< first send to last reply
  std::uint64_t failed = 0;  ///< every request that did not succeed
  /// Failed requests whose reply was not a well-formed typed error for
  /// this request: wrong values, malformed or missing lines, a dropped
  /// connection. These make the run incorrect; typed errors only fail.
  std::uint64_t wrong = 0;
  std::uint64_t replications = 0;  ///< replications in correct estimates
  std::vector<double> ratios;      ///< one per correct estimate reply
  std::size_t wraps = 0;           ///< connections that restarted a tape
};

class Client {
 public:
  Client(std::uint16_t port, int connections);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Run the closed loop: connection c works through tapes[c]. With
  /// seconds > 0, tapes are cycled and no request is sent after `seconds`
  /// (replies still in flight are awaited and counted); with seconds <= 0
  /// each tape runs once. `inject_bad_reply` >= 0 corrupts the reply of
  /// that completed request (self-test of the reply checks).
  LoopResult run(const std::vector<std::vector<TapeLine>>& tapes,
                 double seconds, long inject_bad_reply = -1);

  /// Send one raw line on connection c and return its one-line reply.
  std::string call(int c, const std::string& line);

 private:
  struct Conn;
  std::vector<Conn> conns_;
  int epfd_ = -1;
};

/// Prometheus text from the daemon's `metrics` method, by full series name
/// (`name{labels}`).
std::map<std::string, double> scrape_metrics(Client& client);

/// p-quantile (microseconds) of the samples a histogram gained between two
/// scrapes: the smallest bucket bound covering that share of the delta.
double histogram_delta_quantile(const std::map<std::string, double>& before,
                                const std::map<std::string, double>& after,
                                const std::string& name,
                                const std::string& label, double p);

/// utime + stime of `pid` in milliseconds.
double proc_cpu_ms(pid_t pid);
/// VmHWM of `pid` in MiB.
double proc_rss_peak_mb(pid_t pid);

}  // namespace perfbench

// Workload tapes: the fixed request lines the benchmark sends, generated
// from the workload seed, each paired with what a correct reply must say.
//
// A workload is three phases of tape:
//   setup   open_instance lines, sent one at a time on connection 0, so the
//           daemon assigns handles 1..K in tape order;
//   warmup  per-connection lines run once before the timed window (they
//           prepare every handle's solver, so timed handle requests hit);
//   timed   per-connection lines the closed loop cycles through for the
//           timed window.
// Handles are partitioned over connections (connection c owns the handles
// h with (h - 1) % kConnections == c), so the order of requests touching
// one handle is fixed by its connection's tape, and every expected
// fingerprint can be computed here, at generation time, by applying each
// delta through core::apply_delta.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr int kConnections = 4;

enum class Op { Open, Update, Solve, Estimate, Stream };

const char* op_name(Op op);

/// What a correct reply to one tape line says.
struct Expect {
  Op op = Op::Solve;
  int n = 0;
  int m = 0;
  std::uint64_t handle = 0;       ///< open/update: echoed handle
  std::uint64_t fingerprint = 0;  ///< open/update/solve
  std::uint64_t parent = 0;       ///< update: fingerprint before the delta
  std::string solver;             ///< solve/estimate: dispatched solver
  int replications = 0;           ///< estimate/stream
  int shards = 0;                 ///< stream: shard envelopes before done
  bool lower_bound = false;       ///< estimate/stream: ratio expected
};

struct TapeLine {
  std::uint64_t id = 0;
  std::string text;  ///< one request line, no trailing newline
  Expect expect;
};

struct Workload {
  std::vector<TapeLine> setup;
  std::vector<std::vector<TapeLine>> warmup;  ///< one tape per connection
  std::vector<std::vector<TapeLine>> timed;   ///< one tape per connection
  /// Timed lines per connection replayed by the traced run.
  std::size_t replay_per_conn = 0;
};

/// The workload names: BENCHMARK.json's, in its order, then
/// dag-cold-solve, which runs but is not in BENCHMARK.json (see
/// perfbench/README.md).
const std::vector<std::string>& workload_names();

/// Generate `name`'s tapes from `seed`. The timed tapes hold enough lines
/// for `seconds` of the closed loop at well above today's throughput; a
/// connection that reaches the end of its tape starts it again (session
/// tapes end by restoring every edited cell, so a second pass sees the
/// same instances). Throws std::invalid_argument for unknown names.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       int seconds);

}  // namespace perfbench

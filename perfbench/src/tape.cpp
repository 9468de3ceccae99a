#include "tape.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "api/registry.hpp"
#include "core/delta.hpp"
#include "core/generators.hpp"
#include "core/io.hpp"
#include "service/json.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using suu::core::Instance;
using suu::util::Rng;

// Timed lines generated per connection per second of the timed window:
// 3-7 times the throughput measured on a 4-vCPU x86 VM, so the closed loop
// does not wrap at today's speed; a wrap is reported. A wrapped
// dag-cold-solve tape re-sends instances the cache has seen, so a change
// that more than triples its throughput needs a longer tape.
constexpr int kSemLinesPerConnSecond = 20;
constexpr int kDagLinesPerConnSecond = 120;
constexpr int kChurnLinesPerConnSecond = 750;

// Timed lines per connection the traced run replays.
constexpr std::size_t kSemReplay = 3;
constexpr std::size_t kDagReplay = 10;
constexpr std::size_t kChurnReplay = 250;

/// The instance's text as a quoted JSON string, ready to splice into a line.
std::string instance_json(const Instance& inst) {
  std::ostringstream os;
  suu::core::write_instance(os, inst);
  std::string out;
  suu::service::json_append_quoted(out, os.str());
  return out;
}

/// Rebuild with the canonical (u, v) edge order apply_delta produces, so
/// the fingerprint the daemon computes from our text equals the one every
/// later delta (and the final restore) lands on.
Instance canonical(const Instance& inst) {
  return suu::core::apply_delta(inst, suu::core::InstanceDelta{});
}

int uniform_int(Rng& rng, int lo, int hi) {
  return static_cast<int>(rng.uniform_int(lo, hi));
}

/// Builds request lines with sequential ids from `first_id`.
class LineMaker {
 public:
  explicit LineMaker(std::uint64_t first_id = 1) : next_id_(first_id) {}

  TapeLine open(const Instance& inst, std::uint64_t handle) {
    TapeLine t = start("open_instance");
    t.text += "\"instance\":" + instance_json(inst);
    t.expect.op = Op::Open;
    t.expect.handle = handle;
    fill_instance(t.expect, inst);
    return finish(std::move(t));
  }

  TapeLine solve(const std::string* inline_json, std::uint64_t handle,
                 const Instance& inst) {
    TapeLine t = start("solve");
    target(t, inline_json, handle);
    t.expect.op = Op::Solve;
    fill_instance(t.expect, inst);
    t.expect.solver = suu::api::SolverRegistry::dispatch(inst);
    return finish(std::move(t));
  }

  TapeLine estimate(const std::string* inline_json, std::uint64_t handle,
                    const Instance& inst, int reps, std::uint64_t seed,
                    int stream_shards = 0) {
    TapeLine t = start("estimate");
    target(t, inline_json, handle);
    t.text += ",\"replications\":" + std::to_string(reps);
    t.text += ",\"seed\":" + std::to_string(seed);
    t.text += ",\"lower_bound\":true";
    if (stream_shards > 0) {
      t.text += ",\"stream\":true,\"shards\":" + std::to_string(stream_shards);
    }
    t.expect.op = stream_shards > 0 ? Op::Stream : Op::Estimate;
    t.expect.shards = stream_shards;
    t.expect.replications = reps;
    t.expect.lower_bound = true;
    fill_instance(t.expect, inst);
    t.expect.solver = suu::api::SolverRegistry::dispatch(inst);
    return finish(std::move(t));
  }

  TapeLine update(std::uint64_t handle, const suu::core::InstanceDelta& delta,
                  const Instance& before, const Instance& after) {
    TapeLine t = start("update_instance");
    t.text += "\"handle\":" + std::to_string(handle) + ",\"q\":{";
    bool first = true;
    for (const auto& [cell, v] : delta.q) {
      if (!first) t.text += ',';
      first = false;
      t.text += '"' + std::to_string(cell) + "\":";
      t.text += suu::service::json_number(v);
    }
    t.text += '}';
    t.expect.op = Op::Update;
    t.expect.handle = handle;
    t.expect.parent = before.fingerprint();
    fill_instance(t.expect, after);
    return finish(std::move(t));
  }

 private:
  TapeLine start(const char* method) {
    TapeLine t;
    t.id = next_id_++;
    t.text = "{\"id\":" + std::to_string(t.id) + ",\"method\":\"" + method +
             "\",\"params\":{";
    return t;
  }
  static TapeLine finish(TapeLine t) {
    t.text += "}}";
    return t;
  }
  static void target(TapeLine& t, const std::string* inline_json,
                     std::uint64_t handle) {
    if (inline_json != nullptr) {
      t.text += "\"instance\":" + *inline_json;
    } else {
      t.text += "\"handle\":" + std::to_string(handle);
    }
  }
  static void fill_instance(Expect& e, const Instance& inst) {
    e.n = inst.num_jobs();
    e.m = inst.num_machines();
    e.fingerprint = inst.fingerprint();
  }

  std::uint64_t next_id_;
};

/// Timed-tape ids: connection c's lines start at kTimedIdBase * (c + 1), so
/// each connection's tape can be generated on its own.
constexpr std::uint64_t kTimedIdBase = 10'000'000;

std::uint64_t owner_conn(std::uint64_t handle) {
  return (handle - 1) % kConnections;
}

std::uint64_t request_seed(Rng& rng) { return 1 + rng.uniform_below(1u << 30); }

// ------------------------------------------------------------ sem-estimate
//
// 24 independent instances, one per (model, n, m) in {uniform, classes} x
// {128, 256, 512, 1024} x {8, 16, 32}, so every seed has the same size mix
// (only q values and request seeds vary). Sorted by cells and dealt
// round-robin to handles, each connection owns one instance of every cost
// sixth.
Workload make_sem(std::uint64_t seed, int seconds) {
  Rng rng(seed);
  struct Spec {
    bool classes;
    int n;
    int m;
  };
  std::vector<Spec> specs;
  for (const bool classes : {false, true}) {
    for (const int n : {128, 256, 512, 1024}) {
      for (const int m : {8, 16, 32}) specs.push_back({classes, n, m});
    }
  }
  std::stable_sort(specs.begin(), specs.end(),
                   [](const Spec& a, const Spec& b) {
                     return a.n * a.m < b.n * b.m;
                   });

  Workload w;
  w.replay_per_conn = kSemReplay;
  w.warmup.resize(kConnections);
  w.timed.resize(kConnections);
  LineMaker lm;
  std::vector<std::shared_ptr<const Instance>> insts;
  for (const Spec& s : specs) {
    const auto model = s.classes ? suu::core::MachineModel::classes()
                                 : suu::core::MachineModel::uniform(0.3, 0.9);
    insts.push_back(std::make_shared<const Instance>(
        canonical(suu::core::make_independent(s.n, s.m, model, rng))));
    w.setup.push_back(lm.open(*insts.back(), insts.size()));
  }
  std::vector<std::vector<std::uint64_t>> owned(kConnections);
  for (std::uint64_t h = 1; h <= insts.size(); ++h) {
    owned[owner_conn(h)].push_back(h);
  }
  for (int c = 0; c < kConnections; ++c) {
    for (const std::uint64_t h : owned[c]) {
      w.warmup[c].push_back(
          lm.estimate(nullptr, h, *insts[h - 1], 2, request_seed(rng)));
    }
    const int lines = std::max(60, seconds * kSemLinesPerConnSecond);
    Rng crng = rng.child(static_cast<std::uint64_t>(c) + 1);
    LineMaker clm(kTimedIdBase * (static_cast<std::uint64_t>(c) + 1));
    std::vector<std::uint64_t> order = owned[c];
    while (static_cast<int>(w.timed[c].size()) < lines) {
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[crng.uniform_below(i)]);
      }
      for (const std::uint64_t h : order) {
        const int reps = 2 + static_cast<int>(w.timed[c].size() % 3);
        w.timed[c].push_back(
            clm.estimate(nullptr, h, *insts[h - 1], reps, request_seed(crng)));
      }
    }
  }
  return w;
}

// ---------------------------------------------------------- dag-cold-solve
//
// Every request inlines a fresh chains or forest instance (m = 8), so each
// one pays parse, LP2 prepare and the lower-bound LP2 cold. Lines cycle
// through chains / out-forest / chains / in-forest and, independently,
// through five evenly spaced sizes (4..12 chains of 4..12 jobs, 32..96
// forest jobs), so every seed sends the same mix of shapes and sizes.
// Larger instances (16..48 chains, 128..256 forest jobs) were tried: about
// one request in eight there falls back from the revised to the tableau
// simplex and takes 0.5-14 s, so a 20 s run holds too few requests for
// throughput to repeat between seeds (it moved by 36%).
Instance make_dag_instance(Rng& rng, int kind, int size) {
  const auto model = suu::core::MachineModel::uniform(0.3, 0.9);
  if (kind % 2 == 0) {
    return canonical(
        suu::core::make_chains(4 + 2 * size, 4, 12, 8, model, rng));
  }
  const int n = 32 + 16 * size;
  return canonical(kind == 1
                       ? suu::core::make_out_forest(n, 8, 0.05, 3, model, rng)
                       : suu::core::make_in_forest(n, 8, 0.05, 3, model, rng));
}

Workload make_dag(std::uint64_t seed, int seconds) {
  Rng rng(seed);
  Workload w;
  w.replay_per_conn = kDagReplay;
  w.warmup.resize(kConnections);
  w.timed.resize(kConnections);
  auto line = [](LineMaker& lm, Rng& r, const Instance& inst) {
    const std::string json = instance_json(inst);
    return lm.estimate(&json, 0, inst, 2, request_seed(r));
  };
  LineMaker lm;
  const auto model = suu::core::MachineModel::uniform(0.3, 0.9);
  for (int c = 0; c < kConnections; ++c) {
    w.warmup[c].push_back(line(
        lm, rng, canonical(suu::core::make_chains(4, 2, 4, 8, model, rng))));
  }
  // Thousands of payloads: generate each connection's tape on its own
  // thread (own RNG stream and id range, so the bytes do not depend on it).
  const int lines = std::max(8, seconds * kDagLinesPerConnSecond);
  std::vector<std::exception_ptr> errors(kConnections);
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        try {
          Rng crng = rng.child(static_cast<std::uint64_t>(c) + 1);
          LineMaker clm(kTimedIdBase * (static_cast<std::uint64_t>(c) + 1));
          auto& tape = w.timed[c];
          tape.reserve(static_cast<std::size_t>(lines));
          for (int i = 0; i < lines; ++i) {
            const int k = c * 7 + i;
            tape.push_back(
                line(clm, crng, make_dag_instance(crng, k % 4, k % 5)));
          }
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    }
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return w;
}

// ----------------------------------------------------------- session-churn
//
// 32 small handles (independent up to 24x6, chains, forests; the shape and
// size of handle h are fixed, only q values come from the seed) stay open
// for the whole run. No recorded traffic exists to weigh the request kinds,
// so each connection's tape is a sequence of steps on one of its handles,
// the four kinds the workload names drawn with equal odds:
//   - a delta step: update_instance with a 2-cell q-delta, then a handle
//     solve (a cache miss). This is the update+solve pair of the delta
//     client in bench/bench_delta_resolve.cpp, which also uses 2 cells;
//   - a repeat handle solve (a hit);
//   - a small streamed estimate: 2-4 shards, 4-8 replications, so every
//     shard runs at least one;
//   - an inline re-solve of the handle's current text.
// Each tape ends with one update per handle restoring every edited cell, so
// a wrapped tape replays the same instance sequence.
Instance make_small(Rng& rng, int h) {
  const auto model = suu::core::MachineModel::uniform(0.2, 0.9);
  const int m = 2 + h % 5;
  switch (h % 3) {
    case 0:
      return canonical(
          suu::core::make_independent(8 + (h * 5) % 17, m, model, rng));
    case 1:
      return canonical(
          suu::core::make_chains(3 + h % 4, 2, 4, m, model, rng));
    default:
      return canonical(
          suu::core::make_out_forest(8 + (h * 3) % 13, m, 0.2, 3, model, rng));
  }
}

Workload make_churn(std::uint64_t seed, int seconds) {
  Rng rng(seed);
  Workload w;
  w.replay_per_conn = kChurnReplay;
  w.warmup.resize(kConnections);
  w.timed.resize(kConnections);
  LineMaker lm;
  constexpr std::uint64_t kHandles = 32;
  std::vector<Instance> original;
  std::vector<Instance> current;
  for (std::uint64_t h = 1; h <= kHandles; ++h) {
    original.push_back(make_small(rng, static_cast<int>(h)));
    current.push_back(original.back());
    w.setup.push_back(lm.open(original.back(), h));
  }
  std::vector<std::vector<std::uint64_t>> owned(kConnections);
  for (std::uint64_t h = 1; h <= kHandles; ++h) {
    owned[owner_conn(h)].push_back(h);
  }
  for (int c = 0; c < kConnections; ++c) {
    for (const std::uint64_t h : owned[c]) {
      w.warmup[c].push_back(lm.solve(nullptr, h, current[h - 1]));
    }
  }

  const int lines = std::max(200, seconds * kChurnLinesPerConnSecond);
  // Each handle's current text as JSON, empty after a delta: writing and
  // quoting it dominates tape generation, and most inline re-solves repeat
  // an unchanged text.
  std::vector<std::string> texts(kHandles);
  for (int c = 0; c < kConnections; ++c) {
    Rng crng = rng.child(static_cast<std::uint64_t>(c) + 1);
    LineMaker clm(kTimedIdBase * (static_cast<std::uint64_t>(c) + 1));
    std::map<std::uint64_t, std::set<std::int64_t>> edited;
    auto& tape = w.timed[c];
    while (static_cast<int>(tape.size()) < lines) {
      const std::uint64_t h = owned[c][crng.uniform_below(owned[c].size())];
      Instance& cur = current[h - 1];
      switch (crng.uniform_below(4)) {
        case 0: {
          const std::int64_t cells =
              static_cast<std::int64_t>(cur.num_jobs()) * cur.num_machines();
          std::set<std::int64_t> picked;
          while (picked.size() < 2) {
            picked.insert(static_cast<std::int64_t>(
                crng.uniform_below(static_cast<std::uint64_t>(cells))));
          }
          suu::core::InstanceDelta delta;
          for (const std::int64_t cell : picked) {
            delta.q.emplace_back(cell, (1.0 + crng.uniform_below(60)) / 64.0);
            edited[h].insert(cell);
          }
          Instance next = suu::core::apply_delta(cur, delta);
          tape.push_back(clm.update(h, delta, cur, next));
          cur = std::move(next);
          texts[h - 1].clear();
          tape.push_back(clm.solve(nullptr, h, cur));
          break;
        }
        case 1:
          tape.push_back(clm.solve(nullptr, h, cur));
          break;
        case 2: {
          const int reps = uniform_int(crng, 4, 8);
          const std::uint64_t seed = request_seed(crng);
          tape.push_back(clm.estimate(nullptr, h, cur, reps, seed,
                                      uniform_int(crng, 2, 4)));
          break;
        }
        default: {
          std::string& json = texts[h - 1];
          if (json.empty()) json = instance_json(cur);
          tape.push_back(clm.solve(&json, 0, cur));
        }
      }
    }
    for (const std::uint64_t h : owned[c]) {
      if (edited[h].empty()) continue;
      const Instance& orig = original[h - 1];
      suu::core::InstanceDelta restore;
      for (const std::int64_t cell : edited[h]) {
        restore.q.emplace_back(
            cell, orig.q(static_cast<int>(cell % orig.num_machines()),
                         static_cast<int>(cell / orig.num_machines())));
      }
      Instance back = suu::core::apply_delta(current[h - 1], restore);
      if (back.fingerprint() != orig.fingerprint()) {
        throw std::logic_error("session-churn restore did not converge");
      }
      tape.push_back(clm.update(h, restore, current[h - 1], back));
      current[h - 1] = std::move(back);
    }
  }
  return w;
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::Open: return "open_instance";
    case Op::Update: return "update_instance";
    case Op::Solve: return "solve";
    case Op::Estimate: return "estimate";
    case Op::Stream: return "estimate_stream";
  }
  return "?";
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sem-estimate", "session-churn", "dag-cold-solve"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       int seconds) {
  if (name == "sem-estimate") return make_sem(seed, seconds);
  if (name == "dag-cold-solve") return make_dag(seed, seconds);
  if (name == "session-churn") return make_churn(seed, seconds);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench

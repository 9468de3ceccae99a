#include "replay.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string_view>

#include "algos/suu_i.hpp"
#include "api/experiment.hpp"
#include "api/precompute_cache.hpp"
#include "api/registry.hpp"
#include "core/delta.hpp"
#include "core/io.hpp"
#include "obs/metrics.hpp"
#include "service/engine.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "wire.hpp"

namespace perfbench {
namespace {

namespace api = suu::api;
namespace core = suu::core;
namespace service = suu::service;

// ------------------------------------------------------------- LP counts

struct LpCounts {
  double solves = 0, pivots = 0, refactorizations = 0, ftran_calls = 0,
         ftran_nnz = 0, fallbacks = 0;

  static LpCounts read() {
    static suu::obs::Registry& reg = suu::obs::Registry::global();
    static suu::obs::Counter* c[] = {
        &reg.counter("suu_lp_solves_total"),
        &reg.counter("suu_lp_pivots_total"),
        &reg.counter("suu_lp_refactorizations_total"),
        &reg.counter("suu_lp_ftran_calls_total"),
        &reg.counter("suu_lp_ftran_nnz_total"),
        &reg.counter("suu_lp_tableau_fallbacks_total")};
    LpCounts out;
    double* f[] = {&out.solves,      &out.pivots,    &out.refactorizations,
                   &out.ftran_calls, &out.ftran_nnz, &out.fallbacks};
    for (int i = 0; i < 6; ++i) *f[i] = static_cast<double>(c[i]->value());
    return out;
  }
  void add_delta(const LpCounts& a, const LpCounts& b) {
    solves += b.solves - a.solves;
    pivots += b.pivots - a.pivots;
    refactorizations += b.refactorizations - a.refactorizations;
    ftran_calls += b.ftran_calls - a.ftran_calls;
    ftran_nnz += b.ftran_nnz - a.ftran_nnz;
    fallbacks += b.fallbacks - a.fallbacks;
  }
};

// ------------------------------------------------------------------ spans

struct Span {
  const char* name = "";
  int parent = -1;
  std::size_t request = 0;  ///< index of the replayed line
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool counts_lp = false;
  LpCounts lp;               ///< counts_lp: start values, then the delta
  double policy_ns = 0.0;    ///< sim.replication: time inside the policy
  int sem_rounds = -1;       ///< sim.replication of a SUU-I-SEM policy
  double bytes = 0.0;        ///< core.io.read: payload bytes
  bool cache_miss = false;   ///< api.prepare: the prepare ran
};

/// Records spans; with `on` false every call is a no-op (id -1), which is
/// how the untraced reconstruction runs the same code.
class Tracer {
 public:
  explicit Tracer(bool on) : on(on) {}

  int begin(const char* name, bool counts_lp = false) {
    if (!on) return -1;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request;
    s.counts_lp = counts_lp;
    if (counts_lp) s.lp = LpCounts::read();
    s.start_ns = now_ns();
    spans.push_back(s);
    stack_.push_back(static_cast<int>(spans.size()) - 1);
    return stack_.back();
  }
  void end(int id) {
    if (id < 0) return;
    Span& s = spans[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    if (s.counts_lp) {
      LpCounts delta;
      delta.add_delta(s.lp, LpCounts::read());
      s.lp = delta;
    }
    stack_.pop_back();
  }
  Span* at(int id) {
    return id < 0 ? nullptr : &spans[static_cast<std::size_t>(id)];
  }

  const bool on;
  std::vector<Span> spans;
  std::size_t request = 0;

 private:
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name, bool counts_lp = false)
      : t_(t), id_(t.begin(name, counts_lp)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

/// Forwards to the prepared factory's policy; times reset + decide, and
/// spans one replication (factory mint to policy destruction).
class TimedPolicy final : public suu::sim::Policy {
 public:
  TimedPolicy(std::unique_ptr<suu::sim::Policy> inner, Tracer& tracer, int span)
      : inner_(std::move(inner)), tracer_(tracer), span_(span) {}
  ~TimedPolicy() override {
    Span* s = tracer_.at(span_);
    s->policy_ns = policy_ns_;
    if (const auto* sem =
            dynamic_cast<const suu::algos::SuuISemPolicy*>(inner_.get())) {
      s->sem_rounds = sem->rounds_used();
    }
    tracer_.end(span_);
  }
  TimedPolicy(const TimedPolicy&) = delete;
  TimedPolicy& operator=(const TimedPolicy&) = delete;

  std::string name() const override { return inner_->name(); }
  void reset(const core::Instance& inst, suu::util::Rng rng) override {
    const std::int64_t t0 = now_ns();
    inner_->reset(inst, rng);
    policy_ns_ += static_cast<double>(now_ns() - t0);
  }
  suu::sched::Assignment decide(const suu::sim::ExecState& state) override {
    const std::int64_t t0 = now_ns();
    suu::sched::Assignment a = inner_->decide(state);
    policy_ns_ += static_cast<double>(now_ns() - t0);
    return a;
  }

 private:
  std::unique_ptr<suu::sim::Policy> inner_;
  Tracer& tracer_;
  int span_;
  double policy_ns_ = 0.0;
};

// -------------------------------------------------------- reconstruction
//
// Mirrors service::Engine's handlers for the methods the tapes use. Engine
// internals the replay cannot call (session table, response assembly of
// the handler bodies) are re-stated here; everything else is the public
// function Engine itself calls.

class Replayer {
 public:
  explicit Replayer(Tracer& tracer) : tr_(tracer) {}
  ~Replayer() {
    for (auto& [h, s] : sessions_) {
      for (const std::uint64_t key : s.pinned) {
        api::PrecomputeCache::global().unpin(key);
      }
    }
  }
  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  std::string handle(const std::string& line) {
    service::Request req;
    try {
      {
        Scope s(tr_, "service.protocol.parse");
        req = service::parse_request(line);
      }
      return dispatch(req);
    } catch (const service::ProtocolError& err) {
      return service::make_error_response(service::parse_request_id(line),
                                          err.code(), err.what());
    }
  }

 private:
  struct Session {
    std::shared_ptr<const core::Instance> instance;
    std::vector<std::uint64_t> pinned;
    std::uint64_t parent_fp = 0;
  };
  struct Prepared {
    std::shared_ptr<const core::Instance> instance;
    api::PreparedSolver solver;
  };

  std::string dispatch(const service::Request& req) {
    try {
      if (req.method == "estimate") return estimate(req);
      std::string result;
      if (req.method == "open_instance") {
        result = open(req.params);
      } else if (req.method == "update_instance") {
        result = update(req.params);
      } else if (req.method == "solve") {
        result = solve(req.params);
      } else {
        throw service::ProtocolError(service::error_code::kUnknownMethod,
                                     "method not replayed: " + req.method);
      }
      Scope s(tr_, "service.protocol.serialize");
      return service::make_result_response(req.id, result);
    } catch (const service::ProtocolError& err) {
      return service::make_error_response(req.id, err.code(), err.what());
    } catch (const service::JsonError& err) {
      return service::make_error_response(
          req.id, service::error_code::kBadParams, err.what());
    } catch (const core::ParseError& err) {
      return service::make_error_response(
          req.id, service::error_code::kBadInstance, err.what());
    } catch (const suu::util::CheckError& err) {
      return service::make_error_response(
          req.id, service::error_code::kBadParams, err.what());
    } catch (const std::exception& err) {
      return service::make_error_response(
          req.id, service::error_code::kInternal, err.what());
    }
  }

  std::shared_ptr<const core::Instance> read(const std::string& text) {
    Scope s(tr_, "core.io.read");
    if (Span* span = tr_.at(s.id())) {
      span->bytes = static_cast<double>(text.size());
    }
    std::istringstream is(text);
    return std::make_shared<const core::Instance>(
        core::read_instance(is, core::ReadLimits{}));
  }

  Session& session(std::uint64_t handle) {
    const auto it = sessions_.find(handle);
    if (it == sessions_.end()) {
      throw service::ProtocolError(
          service::error_code::kUnknownHandle,
          "unknown, closed, or expired instance handle " +
              std::to_string(handle));
    }
    return it->second;
  }

  std::string open(const service::Json& params) {
    service::OpenInstanceParams p;
    {
      Scope s(tr_, "service.protocol.parse");
      p = service::parse_open_instance_params(params);
    }
    auto inst = read(p.instance_text);
    const std::uint64_t handle = next_handle_++;
    sessions_[handle].instance = inst;
    Scope s(tr_, "service.protocol.serialize");
    std::string out = "{\"handle\":" + std::to_string(handle);
    out += ",\"fingerprint\":";
    service::json_append_quoted(out, fingerprint_hex(inst->fingerprint()));
    out += ",\"n\":" + std::to_string(inst->num_jobs());
    out += ",\"m\":" + std::to_string(inst->num_machines());
    out += '}';
    return out;
  }

  std::string update(const service::Json& params) {
    service::UpdateInstanceParams p;
    {
      Scope s(tr_, "service.protocol.parse");
      p = service::parse_update_instance_params(params);
    }
    Session& sess = session(p.handle);
    const auto base = sess.instance;
    std::shared_ptr<const core::Instance> next;
    try {
      Scope s(tr_, "core.delta.apply");
      next = std::make_shared<const core::Instance>(
          core::apply_delta(*base, p.delta, core::ReadLimits{}));
    } catch (const core::DeltaError& err) {
      throw service::ProtocolError(service::error_code::kBadDelta, err.what());
    }
    sess.instance = next;
    sess.parent_fp = base->fingerprint();
    Scope s(tr_, "service.protocol.serialize");
    std::string out = "{\"handle\":" + std::to_string(p.handle);
    out += ",\"fingerprint\":";
    service::json_append_quoted(out, fingerprint_hex(next->fingerprint()));
    out += ",\"parent\":";
    service::json_append_quoted(out, fingerprint_hex(base->fingerprint()));
    out += ",\"n\":" + std::to_string(next->num_jobs());
    out += ",\"m\":" + std::to_string(next->num_machines());
    out += '}';
    return out;
  }

  std::shared_ptr<const core::Instance> resolve(const service::SolveParams& p) {
    if (!p.has_handle) return read(p.instance_text);
    return session(p.handle).instance;
  }

  Prepared prepare(std::shared_ptr<const core::Instance> inst,
                   const service::SolveParams& p) {
    Scope s(tr_, "api.prepare", /*counts_lp=*/true);
    const api::SolverRegistry& reg = api::SolverRegistry::global();
    const std::string resolved =
        p.solver == "auto" ? api::SolverRegistry::dispatch(*inst) : p.solver;
    if (!reg.contains(resolved)) {
      throw service::ProtocolError(service::error_code::kUnknownSolver,
                                   "unknown solver '" + resolved + "'");
    }
    const std::uint64_t key =
        api::SolverRegistry::prepare_key(*inst, resolved, p.options);
    api::PrepareHint hint;
    api::PrepareHint* hintp = nullptr;
    if (p.has_handle) {
      Session& sess = session(p.handle);
      if (std::find(sess.pinned.begin(), sess.pinned.end(), key) ==
          sess.pinned.end()) {
        sess.pinned.push_back(key);
        api::PrecomputeCache::global().pin(key);
      }
      if (sess.parent_fp != 0) {
        hint.parent_key = api::SolverRegistry::prepare_key(
            sess.parent_fp, resolved, p.options);
        hintp = &hint;
      }
    }
    const std::uint64_t misses = api::PrecomputeCache::global().stats().misses;
    Prepared prep;
    prep.instance = std::move(inst);
    prep.solver = reg.prepare(*prep.instance, resolved, p.options, hintp);
    if (Span* span = tr_.at(s.id())) {
      span->cache_miss =
          api::PrecomputeCache::global().stats().misses != misses;
    }
    return prep;
  }

  double lower_bound(const core::Instance& inst,
                     const suu::rounding::Lp1Options& opt) {
    Scope s(tr_, "api.lower_bound", /*counts_lp=*/true);
    return api::lower_bound_auto(inst, opt).value;
  }

  std::string solve(const service::Json& params) {
    service::SolveParams p;
    {
      Scope s(tr_, "service.protocol.parse");
      p = service::parse_solve_params(params);
    }
    const Prepared prep = prepare(resolve(p), p);
    const core::Instance& inst = *prep.instance;
    const double lb = p.want_lower_bound ? lower_bound(inst, p.options.lp1) : 0;
    Scope s(tr_, "service.protocol.serialize");
    std::string out = "{\"solver\":";
    service::json_append_quoted(out, prep.solver.name);
    out += ",\"n\":" + std::to_string(inst.num_jobs());
    out += ",\"m\":" + std::to_string(inst.num_machines());
    out += ",\"fingerprint\":";
    service::json_append_quoted(out, fingerprint_hex(inst.fingerprint()));
    if (p.want_lower_bound) out += ",\"lower_bound\":" + suu::util::fmt(lb, 6);
    out += '}';
    return out;
  }

  /// One runner over replications [lo, hi) with the policy wrapper in
  /// place of the prepared factory, as Engine's shard cells run.
  const api::CellResult& run_cell(api::ExperimentRunner& runner,
                                  const Prepared& prep, int lo, int hi) {
    api::Cell cell;
    cell.instance_label = "wire";
    cell.instance = prep.instance;
    cell.factory = prep.solver.factory;
    if (tr_.on) {
      Tracer& tr = tr_;
      cell.factory = [&tr, inner = prep.solver.factory] {
        const int span = tr.begin("sim.replication", /*counts_lp=*/true);
        return std::make_unique<TimedPolicy>(inner(), tr, span);
      };
    }
    cell.factory_label = prep.solver.name;
    cell.seed_stream = 1;
    cell.rep_offset = lo;
    cell.replications = hi - lo;
    runner.add(std::move(cell));
    Scope s(tr_, "api.runner");
    try {
      return runner.run().front();
    } catch (const suu::util::CheckError& err) {
      if (std::string_view(err.what()).find("step cap") !=
          std::string_view::npos) {
        throw service::ProtocolError(service::error_code::kCapped, err.what());
      }
      throw;
    }
  }

  static api::ExperimentRunner::Options runner_options(
      const service::EstimateParams& p) {
    api::ExperimentRunner::Options o;
    o.seed = p.seed;
    o.replications = p.replications;
    o.semantics = p.semantics;
    o.strict_eligibility = p.strict_eligibility;
    o.step_cap = p.step_cap;
    o.skip_capped = true;
    o.threads = 1;
    o.cell_threads = 1;
    return o;
  }

  std::string estimate_result(const Prepared& prep, int replications,
                              int capped, const suu::util::Estimate& makespan,
                              const service::EstimateParams& p) {
    const core::Instance& inst = *prep.instance;
    const double lb = p.solve.want_lower_bound
                          ? lower_bound(inst, p.solve.options.lp1)
                          : 0.0;
    Scope s(tr_, "service.protocol.serialize");
    std::string out = service::estimate_result_body(
        prep.solver.name, inst.num_jobs(), inst.num_machines(), replications,
        capped, makespan);
    if (p.solve.want_lower_bound) {
      out += ",\"lower_bound\":" + suu::util::fmt(lb, 6);
      if (lb > 0.0) {
        out += ",\"ratio\":" + suu::util::fmt(makespan.mean / lb, 6);
      }
    }
    out += '}';
    return out;
  }

  std::string estimate(const service::Request& req) {
    service::EstimateParams p;
    {
      Scope s(tr_, "service.protocol.parse");
      p = service::parse_estimate_params(
          req.params, service::Engine::Config{}.max_replications);
    }
    if (p.shard >= 0) {
      throw service::ProtocolError(service::error_code::kBadParams,
                                   "single-shard estimates are not replayed");
    }
    const Prepared prep = prepare(resolve(p.solve), p.solve);
    if (!p.stream) {
      api::ExperimentRunner runner(runner_options(p));
      const api::CellResult& r = run_cell(runner, prep, 0, p.replications);
      const std::string result =
          estimate_result(prep, r.replications, r.capped, r.makespan, p);
      Scope s(tr_, "service.protocol.serialize");
      return service::make_result_response(req.id, result);
    }
    std::string joined;
    suu::util::OnlineStats agg;
    int capped = 0;
    for (int shard = 0; shard < p.shards; ++shard) {
      const auto [lo, hi] =
          service::shard_range(p.replications, p.shards, shard);
      api::ExperimentRunner runner(runner_options(p));
      const api::CellResult& r = run_cell(runner, prep, lo, hi);
      capped += r.capped;
      for (const double x : r.samples.samples()) agg.add(x);
      Scope s(tr_, "service.protocol.serialize");
      std::ostringstream os;
      runner.print_json(os);
      std::string row = os.str();
      if (!row.empty() && row.back() == '\n') row.pop_back();
      joined += service::make_shard_response(req.id, shard, p.shards, row);
      joined += '\n';
    }
    const std::string result = estimate_result(
        prep, p.replications, capped, suu::util::make_estimate(agg), p);
    Scope s(tr_, "service.protocol.serialize");
    joined += service::make_done_response(req.id, p.shards, result);
    return joined;
  }

  Tracer& tr_;
  std::map<std::uint64_t, Session> sessions_;
  std::uint64_t next_handle_ = 1;
};

// -------------------------------------------------------------- summary

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

std::vector<double> engine_pass(const std::vector<ReplayLine>& lines,
                                std::vector<std::string>* replies) {
  api::PrecomputeCache::global().clear();
  service::Engine::Config cfg;
  cfg.workers = 1;
  service::Engine engine(cfg);
  std::vector<double> us;
  replies->clear();
  for (const ReplayLine& l : lines) {
    const std::int64_t t0 = now_ns();
    replies->push_back(engine.handle(l.line->text));
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return us;
}

namespace {

/// One reconstruction pass on a cleared cache; returns its wall time in
/// microseconds and byte-checks every reply against `reference`.
double reconstruct(const std::vector<ReplayLine>& lines,
                   const std::vector<std::string>& reference, Tracer& tr,
                   TracedResult* out) {
  api::PrecomputeCache::global().clear();
  Replayer replayer(tr);
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    tr.request = i;
    std::string reply;
    {
      Scope root(tr, "request");
      reply = replayer.handle(lines[i].line->text);
    }
    ++out->checked;
    if (reply != reference[i]) ++out->mismatches;
  }
  return static_cast<double>(now_ns() - t0) / 1e3;
}

}  // namespace

TracedResult traced_pass(const std::vector<ReplayLine>& lines,
                         const std::vector<std::string>& reference,
                         const std::string& workload) {
  // Untraced and traced passes alternate (kOverheadRounds each) so drift
  // on a shared machine falls on both sides; the last traced pass's spans
  // are the ones reported.
  constexpr int kOverheadRounds = 2;
  TracedResult out;
  double base_us = 0.0;
  double traced_us = 0.0;
  std::unique_ptr<Tracer> traced;
  for (int round = 0; round < kOverheadRounds; ++round) {
    Tracer off(false);
    base_us += reconstruct(lines, reference, off, &out);
    traced = std::make_unique<Tracer>(true);
    traced_us += reconstruct(lines, reference, *traced, &out);
  }
  out.metrics["trace.overhead_pct"] = 100.0 * (traced_us - base_us) / base_us;
  const Tracer& tr = *traced;

  // Self time: a span's duration minus its children's, and for a
  // replication minus the time inside the policy (reported as its own
  // algos.policy layer).
  std::vector<double> child_ns(tr.spans.size(), 0.0);
  for (const Span& s : tr.spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, std::vector<double>> self_us;
  std::vector<double> per_line_parse(lines.size(), 0.0);
  std::vector<double> per_line_serialize(lines.size(), 0.0);
  out.layers_us.assign(lines.size(), 0.0);
  std::map<std::string, LpCounts> lp_by_span;
  LpCounts lp_total;
  double io_us = 0.0, io_bytes = 0.0, policy_ns = 0.0, sim_self_ns = 0.0;
  double reps = 0.0, sem_rounds = 0.0, sem_reps = 0.0;
  std::vector<double> prepare_miss_ms, lower_bound_ms, delta_us;
  for (std::size_t i = 0; i < tr.spans.size(); ++i) {
    const Span& s = tr.spans[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    const std::string name = s.parent < 0 ? "replay.glue" : s.name;
    double self = dur - child_ns[i];
    if (s.parent < 0) out.layers_us[s.request] = child_ns[i] / 1e3;
    if (std::string_view(s.name) == "sim.replication") {
      self -= s.policy_ns;
      self_us["algos.policy"].push_back(s.policy_ns / 1e3);
      policy_ns += s.policy_ns;
      sim_self_ns += self;
      reps += 1.0;
      if (s.sem_rounds >= 0) {
        sem_rounds += s.sem_rounds;
        sem_reps += 1.0;
      }
    }
    self_us[name].push_back(self / 1e3);
    if (s.counts_lp) {
      lp_by_span[s.name].add_delta(LpCounts{}, s.lp);
      lp_total.add_delta(LpCounts{}, s.lp);
    }
    const std::string_view n = s.name;
    if (n == "core.io.read") {
      io_us += dur / 1e3;
      io_bytes += s.bytes;
    } else if (n == "core.delta.apply") {
      delta_us.push_back(dur / 1e3);
    } else if (n == "api.prepare" && s.cache_miss) {
      prepare_miss_ms.push_back(dur / 1e6);
    } else if (n == "api.lower_bound") {
      lower_bound_ms.push_back(dur / 1e6);
    } else if (n == "service.protocol.parse") {
      per_line_parse[s.request] += dur / 1e3;
    } else if (n == "service.protocol.serialize") {
      per_line_serialize[s.request] += dur / 1e3;
    }
  }
  std::vector<double> timed_parse, timed_serialize;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!lines[i].timed) continue;
    timed_parse.push_back(per_line_parse[i]);
    timed_serialize.push_back(per_line_serialize[i]);
  }

  auto& m = out.metrics;
  m["service.protocol_parse_us"] = quantile(timed_parse, 0.5);
  m["service.protocol_serialize_us"] = quantile(timed_serialize, 0.5);
  m["core.io_read_us_per_kb"] = io_bytes > 0 ? io_us / (io_bytes / 1024.0) : 0;
  m["core.delta_apply_us"] = quantile(delta_us, 0.5);
  m["api.prepare_ms"] = quantile(prepare_miss_ms, 0.5);
  m["api.lower_bound_ms"] = quantile(lower_bound_ms, 0.5);
  m["algos.policy_ms_per_rep"] = reps > 0 ? policy_ns / 1e6 / reps : 0.0;
  m["algos.sem_rounds_per_rep"] = sem_reps > 0 ? sem_rounds / sem_reps : 0.0;
  m["sim.self_ms_per_rep"] = reps > 0 ? sim_self_ns / 1e6 / reps : 0.0;
  m["lp.simplex_solves"] = lp_total.solves;
  m["lp.pivots_per_solve"] =
      lp_total.solves > 0 ? lp_total.pivots / lp_total.solves : 0.0;
  m["lp.refactorizations_per_solve"] =
      lp_total.solves > 0 ? lp_total.refactorizations / lp_total.solves : 0.0;
  m["lp.ftran_fill"] =
      lp_total.ftran_calls > 0 ? lp_total.ftran_nnz / lp_total.ftran_calls : 0;
  m["lp.tableau_fallbacks"] = lp_total.fallbacks;

  // Per-layer summary: self-time median, p90 and share of request time.
  double all_self = 0.0;
  for (const auto& [name, v] : self_us) all_self += sum(v);
  std::string js = "{\"workload\":\"" + workload + "\",\"lines\":" +
                   std::to_string(lines.size()) + ",\"layers\":[";
  bool first = true;
  for (const auto& [name, v] : self_us) {
    if (!first) js += ',';
    first = false;
    js += "{\"layer\":\"" + name + "\",\"spans\":" + std::to_string(v.size()) +
          ",\"self_us_p50\":" + num(quantile(v, 0.5)) +
          ",\"self_us_p90\":" + num(quantile(v, 0.9)) +
          ",\"self_share\":" + num(all_self > 0 ? sum(v) / all_self : 0.0) +
          '}';
  }
  js += "],\"lp_by_span\":{";
  first = true;
  for (const auto& [name, c] : lp_by_span) {
    if (!first) js += ',';
    first = false;
    js += '"' + name + "\":{\"solves\":" + num(c.solves) +
          ",\"pivots\":" + num(c.pivots) +
          ",\"refactorizations\":" + num(c.refactorizations) +
          ",\"ftran_calls\":" + num(c.ftran_calls) +
          ",\"ftran_nnz\":" + num(c.ftran_nnz) +
          ",\"tableau_fallbacks\":" + num(c.fallbacks) + '}';
  }
  js += "}}\n";
  out.summary_json = std::move(js);

  // Chrome trace-event JSON (load in Perfetto or chrome://tracing).
  const std::int64_t t0 = tr.spans.empty() ? 0 : tr.spans.front().start_ns;
  std::string ct = "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < tr.spans.size(); ++i) {
    const Span& s = tr.spans[i];
    if (i != 0) ct += ",\n";
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    ct += "{\"name\":\"" + std::string(s.name) + "\"," + buf +
          ",\"args\":{\"span\":" + std::to_string(i) +
          ",\"parent\":" + std::to_string(s.parent) + ",\"request\":" +
          std::to_string(lines[s.request].line->id);
    if (std::string_view(s.name) == "sim.replication") {
      ct += ",\"policy_us\":" + num(s.policy_ns / 1e3);
    }
    if (s.counts_lp) ct += ",\"lp_solves\":" + num(s.lp.solves);
    ct += "}}";
  }
  ct += "\n]}\n";
  out.chrome_json = std::move(ct);
  return out;
}

}  // namespace perfbench

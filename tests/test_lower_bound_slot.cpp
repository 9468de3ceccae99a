// Lower-bound slot oracle: the LowerBound a prepared solver's slot hands
// out must equal a from-scratch api::lower_bound_auto bit for bit. That
// holds on cold prepares (where suu-i-sem / suu-i-obl and suu-c seed the
// slot with the LP optimum their precompute already solved), on cache hits
// (which share the entry's slot), on cache-bypassing prepares (a fresh slot
// each), and along random q-delta chains whose every child prepare is a
// fresh cache miss.
//
// Instance count comes from SUU_DIFFERENTIAL_INSTANCES (default 200; the
// nightly CI job runs tens of thousands), like the other differential
// suites. The LP-count tests pin the saving itself through the
// suu_lp_solves_total counter: a repeated lower-bound solve on a warm
// handle runs no simplex, and a cold suu-c solve solves LP2 once.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/precompute_cache.hpp"
#include "api/registry.hpp"
#include "core/delta.hpp"
#include "core/generators.hpp"
#include "core/instance.hpp"
#include "core/io.hpp"
#include "obs/metrics.hpp"
#include "rounding/lp1.hpp"
#include "rounding/lp2.hpp"
#include "service/engine.hpp"
#include "service/json.hpp"
#include "util/rng.hpp"

namespace suu {
namespace {

long instance_budget() {
  long v = 200;
  if (const char* env = std::getenv("SUU_DIFFERENTIAL_INSTANCES")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0') v = parsed;
  }
  return std::clamp(v, 10L, 10'000'000L);
}

/// Bit-for-bit equality of every LowerBound field (== would equate -0/+0).
::testing::AssertionResult same_bits(const algos::LowerBound& got,
                                     const algos::LowerBound& want) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  if (bits(got.lp1_half) == bits(want.lp1_half) &&
      bits(got.lp2_half) == bits(want.lp2_half) &&
      bits(got.value) == bits(want.value)) {
    return ::testing::AssertionSuccess();
  }
  std::ostringstream os;
  os.precision(17);
  os << "slot {" << got.lp1_half << ", " << got.lp2_half << ", " << got.value
     << "} != lower_bound_auto {" << want.lp1_half << ", " << want.lp2_half
     << ", " << want.value << "}";
  return ::testing::AssertionFailure() << os.str();
}

/// Family by trial: independent, chains, out-forest. Canonicalized through
/// an empty delta so the q-delta chains below start from the same bytes the
/// wire would produce.
core::Instance family_instance(long trial, util::Rng& rng) {
  util::Rng gen(7000 + static_cast<std::uint64_t>(trial));
  const int m = 2 + static_cast<int>(rng.uniform_below(3));
  core::Instance inst = [&] {
    switch (trial % 3) {
      case 0:
        return core::make_independent(
            4 + static_cast<int>(rng.uniform_below(8)), m,
            core::MachineModel::uniform(0.3, 0.95), gen);
      case 1:
        return core::make_chains(2 + static_cast<int>(rng.uniform_below(3)),
                                 2, 4, m,
                                 core::MachineModel::uniform(0.3, 0.9), gen);
      default:
        return core::make_out_forest(
            5 + static_cast<int>(rng.uniform_below(6)), m, 0.4, 3,
            core::MachineModel::uniform(0.3, 0.9), gen);
    }
  }();
  return core::apply_delta(inst, core::InstanceDelta{});
}

/// The family's dispatched paper solver plus one SUU-I variant (LP1 ignores
/// precedence, so both prepare any family).
std::vector<std::string> family_solvers(long trial) {
  return {"auto", trial % 3 == 1 ? "suu-i-sem" : "suu-i-obl"};
}

/// A q-only delta (1-2 cells) so the dag family is preserved.
core::Instance q_delta_child(const core::Instance& base, util::Rng& rng) {
  const std::uint64_t cells =
      static_cast<std::uint64_t>(base.num_jobs()) * base.num_machines();
  core::InstanceDelta delta;
  const std::int64_t a = static_cast<std::int64_t>(rng.uniform_below(cells));
  delta.q.emplace_back(a, 0.05 + 0.9 * rng.uniform01());
  if (cells > 1 && rng.bernoulli(0.5)) {
    const std::int64_t b =
        (a + 1 + static_cast<std::int64_t>(rng.uniform_below(cells - 1))) %
        static_cast<std::int64_t>(cells);
    delta.q.emplace_back(b, 0.05 + 0.9 * rng.uniform01());
  }
  return core::apply_delta(base, delta);
}

const lp::SimplexEngine kEngines[] = {lp::SimplexEngine::Auto,
                                      lp::SimplexEngine::Tableau,
                                      lp::SimplexEngine::Revised};

TEST(LowerBoundSlot, MatchesLowerBoundAutoBitForBit) {
  const long budget = instance_budget();
  const api::SolverRegistry& reg = api::SolverRegistry::global();
  util::Rng rng(20261017);

  for (long trial = 0; trial < budget; ++trial) {
    const core::Instance root = family_instance(trial, rng);
    api::SolverOptions opt;
    opt.lp1.engine = kEngines[(trial / 3) % 3];
    const algos::LowerBound want = api::lower_bound_auto(root, opt.lp1);

    for (const std::string& solver : family_solvers(trial)) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " solver " + solver);
      // Cold prepare: a fresh entry, its slot seeded by the preparer.
      const api::PreparedSolver cold = reg.prepare(root, solver, opt);
      ASSERT_NE(cold.lower_bound, nullptr);
      EXPECT_TRUE(same_bits(cold.lower_bound->get(root), want));

      // Cache hit: the same slot, already filled.
      const api::PreparedSolver hit = reg.prepare(root, solver, opt);
      EXPECT_EQ(hit.lower_bound, cold.lower_bound);
      EXPECT_TRUE(same_bits(hit.lower_bound->get(root), want));

      // Cache bypass: a fresh slot per prepare.
      api::SolverOptions bypass = opt;
      bypass.reuse_cache = false;
      const api::PreparedSolver fresh = reg.prepare(root, solver, bypass);
      EXPECT_NE(fresh.lower_bound, cold.lower_bound);
      EXPECT_TRUE(same_bits(fresh.lower_bound->get(root), want));

      // A delta chain: every child has a new fingerprint, so its prepare
      // is a cache miss whose slot the preparer seeds afresh.
      core::Instance parent = root;
      const int steps = 1 + static_cast<int>(rng.uniform_below(3));
      for (int step = 0; step < steps; ++step) {
        const core::Instance child = q_delta_child(parent, rng);
        const std::uint64_t misses =
            api::PrecomputeCache::global().stats().misses;
        const api::PreparedSolver prepared = reg.prepare(child, solver, opt);
        EXPECT_EQ(api::PrecomputeCache::global().stats().misses, misses + 1)
            << "step " << step << ": the child prepare must be a miss";
        EXPECT_TRUE(same_bits(prepared.lower_bound->get(child),
                              api::lower_bound_auto(child, opt.lp1)));
        parent = child;
      }
    }
  }
  api::PrecomputeCache::global().clear();
}

// Above simplex_size_limit LP1 runs Frank–Wolfe: the slot must take its
// certified lower bound, not the achieved value.
TEST(LowerBoundSlot, FrankWolfeSizedInstanceMatchesBitForBit) {
  util::Rng gen(91);
  const core::Instance inst = core::make_independent(
      520, 8, core::MachineModel::uniform(0.3, 0.95), gen);  // 4160 cells
  const api::PreparedSolver prepared = api::make_solver(inst, "suu-i-sem");
  EXPECT_TRUE(same_bits(prepared.lower_bound->get(inst),
                        api::lower_bound_auto(inst)));
  api::PrecomputeCache::global().clear();
}

// ------------------------------------------------------------ LP counts

std::uint64_t lp_solves() {
  return obs::Registry::global().counter("suu_lp_solves_total").value();
}

std::string quoted_payload(const core::Instance& inst) {
  std::ostringstream os;
  core::write_instance(os, inst);
  std::string out;
  service::json_append_quoted(out, os.str());
  return out;
}

TEST(LowerBoundSlot, RepeatedSolveOnWarmHandleRunsNoSimplex) {
  if (!obs::enabled()) GTEST_SKIP() << "LP counters need an obs build";
  api::PrecomputeCache::global().clear();
  service::Engine engine;
  util::Rng gen(33);
  const core::Instance instances[] = {
      core::make_independent(60, 6, core::MachineModel::uniform(0.3, 0.95),
                             gen),
      core::make_chains(8, 3, 6, 5, core::MachineModel::uniform(0.3, 0.9),
                        gen),
      core::make_out_forest(40, 4, 0.3, 3,
                            core::MachineModel::uniform(0.3, 0.9), gen)};
  for (const core::Instance& inst : instances) {
    ASSERT_LE(inst.num_jobs() * inst.num_machines(), 4000);
    const service::Json opened = service::Json::parse(engine.handle(
        R"({"id":1,"method":"open_instance","params":{"instance":)" +
        quoted_payload(inst) + "}}"));
    const std::string handle = std::to_string(
        opened.find("result")->find("handle")->as_int64("handle"));
    const std::string solve =
        R"({"id":2,"method":"solve","params":{"handle":)" + handle +
        R"(,"lower_bound":true}})";
    const std::string first = engine.handle(solve);
    const std::uint64_t before = lp_solves();
    EXPECT_EQ(engine.handle(solve), first);
    EXPECT_EQ(lp_solves() - before, 0u)
        << "a warm handle's lower bound must come from its slot";
    engine.handle(R"({"id":3,"method":"close_instance","params":{"handle":)" +
                  handle + "}}");
  }
  api::PrecomputeCache::global().clear();
}

TEST(LowerBoundSlot, ColdChainsSolveSolvesLp2Once) {
  if (!obs::enabled()) GTEST_SKIP() << "LP counters need an obs build";
  util::Rng gen(34);
  const core::Instance inst = core::make_chains(
      10, 3, 6, 5, core::MachineModel::uniform(0.3, 0.9), gen);

  // What one LP2 solve costs in simplex runs.
  std::uint64_t mark = lp_solves();
  rounding::solve_and_round_lp2(inst, inst.dag().chains());
  const std::uint64_t lp2_solves = lp_solves() - mark;
  ASSERT_GE(lp2_solves, 1u);

  api::PrecomputeCache::global().clear();
  service::Engine engine;
  mark = lp_solves();
  const service::Json reply = service::Json::parse(engine.handle(
      R"({"id":1,"method":"solve","params":{"instance":)" +
      quoted_payload(inst) + R"(,"solver":"suu-c","lower_bound":true}})"));
  ASSERT_TRUE(reply.find("ok")->as_bool("ok")) << reply.dump();
  EXPECT_EQ(lp_solves() - mark, lp2_solves)
      << "the bound must reuse the prepare's LP2 optimum and solve no LP1";
  api::PrecomputeCache::global().clear();
}

// Concurrent first readers of one slot wait for a single fill: every thread
// sees the same bits, and the bound's LPs run once, not once per reader.
TEST(LowerBoundSlot, ConcurrentReadersShareOneFill) {
  util::Rng gen(35);
  const core::Instance inst = core::make_out_forest(
      30, 4, 0.3, 3, core::MachineModel::uniform(0.3, 0.9), gen);
  const algos::LowerBound want = api::lower_bound_auto(inst);
  const std::uint64_t one_fill = [&] {
    const std::uint64_t mark = lp_solves();
    api::lower_bound_auto(inst);
    return lp_solves() - mark;
  }();

  api::SolverOptions opt;
  opt.reuse_cache = false;  // a fresh, empty slot
  const api::PreparedSolver prepared = api::make_solver(inst, "suu-t", opt);
  constexpr int kReaders = 4;
  std::vector<algos::LowerBound> got(kReaders);
  const std::uint64_t mark = lp_solves();
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] { got[r] = prepared.lower_bound->get(inst); });
  }
  for (std::thread& t : readers) t.join();
  for (const algos::LowerBound& lb : got) EXPECT_TRUE(same_bits(lb, want));
  EXPECT_EQ(lp_solves() - mark, one_fill);
}

}  // namespace
}  // namespace suu

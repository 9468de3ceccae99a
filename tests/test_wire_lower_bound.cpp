// Wire-level lower-bound oracle: the `lower_bound` that solve and estimate
// report with {"lower_bound": true} must sit below the EXACT optimum
// E[T_OPT] of the instance (algos::ExactSolver), and an estimate's `ratio`
// must be its `mean` over that bound. Checked through Engine::handle on
// every path a request can take to the bound: inline instance bytes, an
// open handle, and the same handle after an update_instance — on small
// random independent instances (Lemma 1) and chains instances (Lemma 1 +
// Lemma 5), drawn like test_integration's LowerBoundVsExact.
//
// Replies print numbers with 6 decimals (util::fmt), so the soundness
// check allows a relative 1e-6 above the exact value (every optimum here
// is at least one step), and the ratio check allows the rounding of the
// three printed figures.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>

#include "algos/exact_dp.hpp"
#include "core/delta.hpp"
#include "core/generators.hpp"
#include "core/instance.hpp"
#include "core/io.hpp"
#include "service/engine.hpp"
#include "service/json.hpp"
#include "util/rng.hpp"

namespace suu {
namespace {

using service::Json;

std::string quoted_payload(const core::Instance& inst) {
  std::ostringstream os;
  core::write_instance(os, inst);
  std::string out;
  service::json_append_quoted(out, os.str());
  return out;
}

/// Trials 0, 2, 4, ... are independent; odd trials are chains (<= 6 jobs).
core::Instance random_instance(int trial) {
  util::Rng rng(8100 + static_cast<std::uint64_t>(trial));
  const int m = 1 + static_cast<int>(rng.uniform_below(3));
  if (trial % 2 == 0) {
    const int n = 2 + static_cast<int>(rng.uniform_below(5));
    const auto model = (trial % 4 == 0)
                           ? core::MachineModel::uniform(0.2, 0.95)
                           : core::MachineModel::sparse(0.6, 0.2, 0.9);
    return core::make_independent(n, m, model, rng);
  }
  for (;;) {
    core::Instance inst = core::make_chains(
        2, 1, 3, m, core::MachineModel::uniform(0.3, 0.9), rng);
    if (inst.num_jobs() <= 6) return inst;
  }
}

/// The reply's result object; fails the test on an error reply.
Json result_of(const std::string& reply) {
  const Json resp = Json::parse(reply);
  EXPECT_TRUE(resp.find("ok")->as_bool("ok")) << reply;
  const Json* result = resp.find("result");
  return result != nullptr ? *result : Json{};
}

/// Both wire checks on one solve or estimate reply against E[T_OPT].
void check_reply(const std::string& reply, double exact, bool estimate) {
  SCOPED_TRACE(reply);
  const Json result = result_of(reply);
  const Json* lb_field = result.find("lower_bound");
  ASSERT_NE(lb_field, nullptr);
  const double lb = lb_field->as_double("lower_bound");
  EXPECT_GT(lb, 0.0);
  EXPECT_LE(lb, exact * (1.0 + 1e-6)) << "E[T_OPT] = " << exact;
  if (!estimate) return;
  const Json* ratio_field = result.find("ratio");
  ASSERT_NE(ratio_field, nullptr);
  const double ratio = ratio_field->as_double("ratio");
  const double mean = result.find("mean")->as_double("mean");
  // Each printed figure is within 5e-7 of its unrounded value; propagate
  // that through mean / lower_bound.
  const double half_ulp = 5e-7;
  const double tol =
      half_ulp + (half_ulp / lb) * (1.0 + mean / lb) * 1.01 + 1e-12;
  EXPECT_NEAR(ratio, mean / lb, tol);
}

/// A 1-2 cell q-delta; values stay clear of 0 so no job loses its last
/// capable machine.
core::InstanceDelta random_q_delta(const core::Instance& base,
                                   util::Rng& rng) {
  const std::uint64_t cells =
      static_cast<std::uint64_t>(base.num_jobs()) * base.num_machines();
  core::InstanceDelta delta;
  const auto a = static_cast<std::int64_t>(rng.uniform_below(cells));
  delta.q.emplace_back(a, 0.05 + 0.9 * rng.uniform01());
  if (cells > 1 && rng.bernoulli(0.5)) {
    const auto b = static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(a) + 1 + rng.uniform_below(cells - 1)) %
        cells);
    delta.q.emplace_back(b, 0.05 + 0.9 * rng.uniform01());
  }
  return delta;
}

std::string update_request(std::uint64_t handle,
                           const core::InstanceDelta& delta) {
  std::string req =
      R"({"id":5,"method":"update_instance","params":{"handle":)" +
      std::to_string(handle) + R"(,"q":{)";
  for (std::size_t i = 0; i < delta.q.size(); ++i) {
    if (i > 0) req += ',';
    req += '"' + std::to_string(delta.q[i].first) +
           "\":" + service::json_number(delta.q[i].second);
  }
  return req + "}}}";
}

constexpr int kTrials = 200;

TEST(WireLowerBound, BelowExactOptimumInlineHandleAndAfterUpdate) {
  service::Engine engine;
  util::Rng delta_rng(4242);
  for (int trial = 0; trial < kTrials; ++trial) {
    // Canonical edge order, so the wire and the local delta agree.
    const core::Instance root =
        core::apply_delta(random_instance(trial), core::InstanceDelta{});
    // The dispatched paper solver and an LP1-only one: the bound's slot is
    // seeded from different prepare-time optima on chains.
    const std::string solver = trial % 4 < 2 ? "auto" : "suu-i-obl";
    SCOPED_TRACE("trial " + std::to_string(trial) + " solver " + solver +
                 " n=" + std::to_string(root.num_jobs()) +
                 " m=" + std::to_string(root.num_machines()));
    const std::string tail =
        R"(,"solver":")" + solver + R"(","lower_bound":true)";
    const auto solve = [&](const std::string& source) {
      return engine.handle(R"({"id":2,"method":"solve","params":{)" + source +
                           tail + "}}");
    };
    const auto estimate = [&](const std::string& source) {
      return engine.handle(R"({"id":3,"method":"estimate","params":{)" +
                           source + tail + R"(,"replications":40,"seed":)" +
                           std::to_string(trial) + "}}");
    };

    const double exact = algos::ExactSolver(root).expected_makespan();
    const std::string inline_src = R"("instance":)" + quoted_payload(root);
    check_reply(solve(inline_src), exact, false);
    check_reply(estimate(inline_src), exact, true);

    const Json opened = result_of(engine.handle(
        R"({"id":1,"method":"open_instance","params":{"instance":)" +
        quoted_payload(root) + "}}"));
    const auto handle =
        static_cast<std::uint64_t>(opened.find("handle")->as_int64("handle"));
    const std::string handle_src = R"("handle":)" + std::to_string(handle);
    check_reply(solve(handle_src), exact, false);
    check_reply(estimate(handle_src), exact, true);

    const core::InstanceDelta delta = random_q_delta(root, delta_rng);
    const core::Instance mutated = core::apply_delta(root, delta);
    result_of(engine.handle(update_request(handle, delta)));
    const double exact_mutated =
        algos::ExactSolver(mutated).expected_makespan();
    check_reply(solve(handle_src), exact_mutated, false);
    check_reply(estimate(handle_src), exact_mutated, true);

    engine.handle(R"({"id":9,"method":"close_instance","params":{"handle":)" +
                  std::to_string(handle) + "}}");
    if (::testing::Test::HasFailure()) break;
  }
}

}  // namespace
}  // namespace suu

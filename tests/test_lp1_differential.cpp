// Differential oracle for LP1 on the path a default request takes
// (labelled `differential` in ctest). rounding::solve_lp1 under Auto runs
// the revised engine from its crash basis once the dense arena reaches
// lp::kLp1RevisedAutoCells, and Frank–Wolfe once |J'| * m exceeds
// simplex_size_limit. Random survivor subsets of generated instances, at
// the SUU-I-SEM demands L in {1, 2, 4, 8}, hold both paths to:
//
//  - revised range (2^17 <= arena < 2^19): the default solve skips phase 1
//    and equals a forced-tableau solve on the objective;
//  - Frank–Wolfe range: FW lower_bound <= simplex optimum <= FW t, with
//    the certified gap (t - lower_bound) / t within FwOptions::rel_gap
//    whenever FW stopped before its iteration cap;
//  - both: the Lemma 2 rounding of the default solution delivers mass >= L
//    to every job with machine loads <= ceil(6 t).
//
// Instance count comes from SUU_DIFFERENTIAL_INSTANCES (default 200; the
// nightly CI job runs tens of thousands), divided by kCostPerInstance: each
// case here solves LPs of up to half a million tableau cells.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "core/generators.hpp"
#include "core/instance.hpp"
#include "lp/fw_cover.hpp"
#include "lp1_arena.hpp"
#include "lp/simplex.hpp"
#include "rounding/lp1.hpp"
#include "util/rng.hpp"

namespace suu::rounding {
namespace {

constexpr long kCostPerInstance = 10;
constexpr double kDemands[] = {1.0, 2.0, 4.0, 8.0};

long case_budget() {
  long v = 200;
  if (const char* env = std::getenv("SUU_DIFFERENTIAL_INSTANCES")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0') v = parsed;
  }
  return std::clamp(v / kCostPerInstance, 3L, 250'000L);
}

/// A generated instance, a survivor subset J' of it and the demand L.
struct Case {
  core::Instance inst;
  std::vector<int> jobs;
  double L = 1.0;
};

/// A random n-job, m-machine instance whose survivor subset grows one
/// random job at a time until `fits` accepts it (or the jobs run out).
template <typename Fits>
Case random_case(util::Rng& rng, int n, int m, Fits fits) {
  const auto model = rng.uniform_below(2) == 0
                         ? core::MachineModel::uniform(0.2, 0.95)
                         : core::MachineModel::sparse(0.5, 0.2, 0.9);
  Case c{core::make_independent(n, m, model, rng), {}, 1.0};
  c.L = kDemands[rng.uniform_below(4)];
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) order[static_cast<std::size_t>(j)] = j;
  for (int k = n - 1; k > 0; --k) {
    std::swap(order[static_cast<std::size_t>(k)],
              order[rng.uniform_below(static_cast<std::uint64_t>(k) + 1)]);
  }
  for (const int j : order) {
    c.jobs.push_back(j);
    if (fits(c)) break;
  }
  std::sort(c.jobs.begin(), c.jobs.end());
  return c;
}

void expect_lemma2(const Case& c, const Lp1Fractional& frac) {
  const sched::IntegralAssignment x = round_lp1(c.inst, c.jobs, c.L, frac);
  for (const int j : c.jobs) {
    EXPECT_GE(x.delivered_mass(c.inst, j, c.L), c.L - 1e-7) << "job " << j;
  }
  const auto cap = static_cast<std::int64_t>(std::ceil(6.0 * frac.t - 1e-9));
  for (int i = 0; i < c.inst.num_machines(); ++i) {
    EXPECT_LE(x.load(i), cap) << "machine " << i << ", t = " << frac.t;
  }
}

TEST(Lp1Differential, RevisedCrashMatchesTableauInLp1Band) {
  util::Rng rng(20260417);
  const long cases = case_budget();
  for (long trial = 0; trial < cases; ++trial) {
    constexpr int kMachines[] = {8, 16, 32};
    const int m = kMachines[rng.uniform_below(3)];
    // Somewhere in [2^17, 2^19): the band where only LP1 goes revised.
    const std::int64_t target =
        lp::kLp1RevisedAutoCells +
        static_cast<std::int64_t>(rng.uniform_below(static_cast<std::uint64_t>(
            lp::kRevisedAutoCells - lp::kLp1RevisedAutoCells) * 9 / 10));
    const Case c = random_case(rng, 4000 / m, m, [&](const Case& cc) {
      return lp1_arena(cc.inst, cc.jobs, cc.L) >= target;
    });
    const std::int64_t arena = lp1_arena(c.inst, c.jobs, c.L);
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << ": |J'|=" << c.jobs.size()
                 << " m=" << m << " L=" << c.L << " arena=" << arena);
    ASSERT_GE(arena, lp::kLp1RevisedAutoCells);
    ASSERT_LT(arena, lp::kRevisedAutoCells);
    ASSERT_LE(static_cast<int>(c.jobs.size()) * m,
              Lp1Options{}.simplex_size_limit);

    const Lp1Fractional got = solve_lp1(c.inst, c.jobs, c.L);
    EXPECT_EQ(got.simplex_phase1_iterations, 0) << "not the crash path";
    Lp1Options tableau;
    tableau.engine = lp::SimplexEngine::Tableau;
    const Lp1Fractional want = solve_lp1(c.inst, c.jobs, c.L, tableau);
    EXPECT_NEAR(got.t, want.t, 1e-9 * (1.0 + std::fabs(want.t)));
    expect_lemma2(c, got);
  }
}

TEST(Lp1Differential, FrankWolfeBracketsSimplexOptimum) {
  util::Rng rng(20260418);
  const long cases = case_budget();
  const int limit = Lp1Options{}.simplex_size_limit;
  for (long trial = 0; trial < cases; ++trial) {
    constexpr int kMachines[] = {8, 16, 32};
    const int m = kMachines[rng.uniform_below(3)];
    // |J'| just past the FW switch, up to 1.5x it.
    const int target = limit / m + 1 +
                       static_cast<int>(rng.uniform_below(
                           static_cast<std::uint64_t>(limit / (2 * m))));
    const Case c = random_case(rng, target + 64, m, [&](const Case& cc) {
      return static_cast<int>(cc.jobs.size()) >= target;
    });
    SCOPED_TRACE(::testing::Message() << "trial " << trial << ": |J'|="
                                      << c.jobs.size() << " m=" << m
                                      << " L=" << c.L);
    ASSERT_GT(static_cast<int>(c.jobs.size()) * m, limit);

    const Lp1Fractional fw = solve_lp1(c.inst, c.jobs, c.L);
    EXPECT_EQ(fw.simplex_iterations, 0) << "not the Frank–Wolfe path";
    Lp1Options simplex;
    simplex.solver = Lp1Options::Solver::Simplex;
    const double opt = solve_lp1(c.inst, c.jobs, c.L, simplex).t;
    const double tol = 1e-9 * (1.0 + opt);
    EXPECT_LE(fw.lower_bound, opt + tol);
    EXPECT_LE(opt, fw.t + tol);
    // FW stops on the gap rule or on its iteration cap; only the former
    // promises the gap. Capped runs are common at L = 1 with m >= 16, where
    // the softmax certificate stays weak while t is already near optimal.
    if (fw.fw_iterations < lp::FwOptions{}.max_iters) {
      EXPECT_LE((fw.t - fw.lower_bound) / fw.t, lp::FwOptions{}.rel_gap);
    }
    expect_lemma2(c, fw);
  }
}

}  // namespace
}  // namespace suu::rounding

// Differential oracle for the simplex engines (labelled `differential` in
// ctest): property-based random LP generation — LP1/LP2-shaped programs,
// fully random mixed-relation programs, degenerate and near-singular
// constructions — solved by BOTH the tableau and the revised engine, with
// matching verdicts required and every claimed optimum re-checked against
// the constraints directly. This suite is the merge gate for any future
// solver rewrite: a numerically different core that silently changes a
// verdict or an optimum fails here before it can corrupt an experiment.
//
// SUU_DIFFERENTIAL_INSTANCES scales the sweep (default 500; the nightly CI
// job runs tens of thousands).
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/io.hpp"
#include "lp/basis.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "rounding/lp2.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace suu::lp {
namespace {

int instance_budget() {
  const char* env = std::getenv("SUU_DIFFERENTIAL_INSTANCES");
  if (env == nullptr || *env == '\0') return 500;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env) return 500;
  return static_cast<int>(std::clamp(v, 10L, 10'000'000L));
}

Row row(std::vector<std::pair<int, double>> terms, Rel rel, double rhs) {
  Row r;
  r.terms = std::move(terms);
  r.rel = rel;
  r.rhs = rhs;
  return r;
}

// LP1-shaped: min t, per-job covering rows, per-machine load rows. Always
// feasible and bounded; moderately degenerate at the optimum.
Problem gen_lp1_shaped(util::Rng& rng) {
  const int n_jobs = 1 + static_cast<int>(rng.uniform_below(6));
  const int n_machines = 1 + static_cast<int>(rng.uniform_below(4));
  Problem p;
  const int t = p.add_var(1.0);
  std::vector<Row> loads(static_cast<std::size_t>(n_machines));
  for (int j = 0; j < n_jobs; ++j) {
    Row cover;
    cover.rel = Rel::Ge;
    cover.rhs = 1.0;
    for (int i = 0; i < n_machines; ++i) {
      if (n_machines > 1 && rng.bernoulli(0.2)) continue;  // incapable pair
      const int v = p.add_var(0.0);
      cover.terms.emplace_back(v, 0.05 + rng.uniform01());
      loads[static_cast<std::size_t>(i)].terms.emplace_back(v, 1.0);
    }
    if (cover.terms.empty()) {
      const int v = p.add_var(0.0);
      cover.terms.emplace_back(v, 0.5);
      loads[0].terms.emplace_back(v, 1.0);
    }
    p.add_row(std::move(cover));
  }
  for (int i = 0; i < n_machines; ++i) {
    Row& load = loads[static_cast<std::size_t>(i)];
    if (load.terms.empty()) continue;
    load.terms.emplace_back(t, -1.0);
    load.rel = Rel::Le;
    load.rhs = 0.0;
    p.add_row(std::move(load));
  }
  return p;
}

// LP2-shaped: adds per-job length variables d_j with x_ij <= d_j, d_j >= 1
// and chain-length rows — the block-chaining workload SUU-T warm starts.
Problem gen_lp2_shaped(util::Rng& rng) {
  const int n_jobs = 2 + static_cast<int>(rng.uniform_below(5));
  const int n_machines = 1 + static_cast<int>(rng.uniform_below(3));
  const int n_chains = 1 + static_cast<int>(rng.uniform_below(3));
  Problem p;
  const int t = p.add_var(1.0);
  std::vector<int> d(static_cast<std::size_t>(n_jobs));
  for (int j = 0; j < n_jobs; ++j) d[static_cast<std::size_t>(j)] = p.add_var(0.0);
  std::vector<Row> loads(static_cast<std::size_t>(n_machines));
  for (int j = 0; j < n_jobs; ++j) {
    Row cover;
    cover.rel = Rel::Ge;
    cover.rhs = 1.0;
    for (int i = 0; i < n_machines; ++i) {
      if (n_machines > 1 && rng.bernoulli(0.25)) continue;
      const int v = p.add_var(0.0);
      cover.terms.emplace_back(v, 0.05 + 0.95 * rng.uniform01());
      loads[static_cast<std::size_t>(i)].terms.emplace_back(v, 1.0);
      p.add_row(row({{v, 1.0}, {d[static_cast<std::size_t>(j)], -1.0}},
                    Rel::Le, 0.0));
    }
    if (cover.terms.empty()) {
      const int v = p.add_var(0.0);
      cover.terms.emplace_back(v, 0.5);
      loads[0].terms.emplace_back(v, 1.0);
      p.add_row(row({{v, 1.0}, {d[static_cast<std::size_t>(j)], -1.0}},
                    Rel::Le, 0.0));
    }
    p.add_row(std::move(cover));
    p.add_row(row({{d[static_cast<std::size_t>(j)], 1.0}}, Rel::Ge, 1.0));
  }
  for (int i = 0; i < n_machines; ++i) {
    Row& load = loads[static_cast<std::size_t>(i)];
    if (load.terms.empty()) continue;
    load.terms.emplace_back(t, -1.0);
    load.rel = Rel::Le;
    load.rhs = 0.0;
    p.add_row(std::move(load));
  }
  for (int c = 0; c < n_chains; ++c) {
    Row len;
    len.rel = Rel::Le;
    len.rhs = 0.0;
    for (int j = c; j < n_jobs; j += n_chains) {
      len.terms.emplace_back(d[static_cast<std::size_t>(j)], 1.0);
    }
    len.terms.emplace_back(t, -1.0);
    p.add_row(std::move(len));
  }
  return p;
}

// Fully random mixed-relation programs: signs, relations and right-hand
// sides unconstrained, so infeasible and unbounded verdicts are exercised
// too — the engines must agree on those as well.
Problem gen_random(util::Rng& rng) {
  const int nv = 1 + static_cast<int>(rng.uniform_below(8));
  Problem p;
  for (int v = 0; v < nv; ++v) p.add_var(2.0 * rng.uniform01() - 1.0);
  const int nr = 1 + static_cast<int>(rng.uniform_below(10));
  for (int r = 0; r < nr; ++r) {
    Row rr;
    const int terms = 1 + static_cast<int>(rng.uniform_below(
                              static_cast<std::uint64_t>(nv)));
    for (int k = 0; k < terms; ++k) {
      rr.terms.emplace_back(static_cast<int>(rng.uniform_below(
                                static_cast<std::uint64_t>(nv))),
                            4.0 * rng.uniform01() - 2.0);
    }
    const auto pick = rng.uniform_below(3);
    rr.rel = pick == 0 ? Rel::Le : (pick == 1 ? Rel::Ge : Rel::Eq);
    rr.rhs = 6.0 * rng.uniform01() - 3.0;
    p.add_row(std::move(rr));
  }
  return p;
}

// Degenerate: a feasible covering LP buried under duplicated rows, scaled
// copies and zero right-hand sides — many ties in every ratio test.
Problem gen_degenerate(util::Rng& rng) {
  Problem p = gen_lp1_shaped(rng);
  const std::size_t base_rows = p.rows.size();
  for (std::size_t r = 0; r < base_rows; ++r) {
    if (rng.bernoulli(0.5)) p.add_row(p.rows[r]);  // verbatim duplicate
    if (rng.bernoulli(0.3)) {
      Row scaled = p.rows[r];
      for (auto& [v, c] : scaled.terms) c *= 2.0;
      scaled.rhs *= 2.0;
      p.add_row(std::move(scaled));
    }
  }
  if (!p.rows.empty() && rng.bernoulli(0.5)) {
    // Redundant equality pair through the first variable.
    p.add_row(row({{0, 1.0}, {0, -1.0}}, Rel::Eq, 0.0));
  }
  return p;
}

// Near-singular: columns that are tiny relative perturbations of each
// other, so factorization pivots live close to the rejection threshold.
Problem gen_near_singular(util::Rng& rng) {
  const int nv = 2 + static_cast<int>(rng.uniform_below(3));
  Problem p;
  for (int v = 0; v < nv; ++v) p.add_var(-0.5 - rng.uniform01());
  const int nr = 2 + static_cast<int>(rng.uniform_below(3));
  std::vector<double> base(static_cast<std::size_t>(nr));
  for (double& b : base) b = 0.5 + rng.uniform01();
  for (int r = 0; r < nr; ++r) {
    Row rr;
    rr.rel = Rel::Le;
    rr.rhs = 1.0 + 2.0 * rng.uniform01();
    for (int v = 0; v < nv; ++v) {
      const double wobble = 1.0 + 1e-8 * static_cast<double>(v) +
                            1e-9 * rng.uniform01();
      rr.terms.emplace_back(v, base[static_cast<std::size_t>(r)] * wobble);
    }
    p.add_row(std::move(rr));
  }
  // Keep the region bounded so the near-parallel columns must actually be
  // priced against each other.
  Row cap;
  cap.rel = Rel::Le;
  cap.rhs = 10.0;
  for (int v = 0; v < nv; ++v) cap.terms.emplace_back(v, 1.0);
  p.add_row(std::move(cap));
  return p;
}

struct Generated {
  Problem p;
  const char* family;
};

Generated generate(util::Rng& rng, int which) {
  switch (which % 5) {
    case 0:
      return {gen_lp1_shaped(rng), "lp1"};
    case 1:
      return {gen_lp2_shaped(rng), "lp2"};
    case 2:
      return {gen_random(rng), "random"};
    case 3:
      return {gen_degenerate(rng), "degenerate"};
    default:
      return {gen_near_singular(rng), "near-singular"};
  }
}

double problem_scale(const Problem& p) {
  double scale = 1.0;
  for (const auto& r : p.rows) scale = std::max(scale, std::fabs(r.rhs));
  return scale;
}

TEST(LpDifferential, EnginesAgreeAcrossGeneratedInstances) {
  const int total = instance_budget();
  // The tableau (Dantzig pricing, the byte-recorded configuration) is the
  // reference the revised engine (Devex pricing) must match. Engine and
  // pricing change the pivot path, never the verdict or the optimum — this
  // is the oracle that enforces it.
  int optimal = 0;
  int infeasible = 0;
  int unbounded = 0;
  int fallbacks = 0;
  int tame_fallbacks = 0;
  for (int i = 0; i < total; ++i) {
    util::Rng rng(0x5EED0000ULL + static_cast<std::uint64_t>(i));
    const Generated g = generate(rng, i);
    const std::string ctx =
        std::string("family=") + g.family + " i=" + std::to_string(i);

    SimplexOptions ref_opt;
    ref_opt.engine = SimplexEngine::Tableau;
    const Solution st = solve_simplex(g.p, ref_opt);
    const double feas_tol = 1e-6 * problem_scale(g.p);
    SimplexOptions opt;
    opt.engine = SimplexEngine::Revised;
    const Solution sr = solve_simplex(g.p, opt);
    // A Revised request that silently fell back re-solved with the
    // tableau, which would make the engine comparison vacuous — tolerated
    // only on the families built to provoke it, and bounded overall below.
    if (sr.engine != SimplexEngine::Revised) {
      ++fallbacks;
      if (std::string(g.family) != "near-singular" &&
          std::string(g.family) != "degenerate") {
        // Devex walks different (occasionally worse conditioned) bases than
        // the reference, so at 20k+ scale a handful of tame-family
        // instances legitimately trip the safety net too. Rare is the
        // invariant — the tight bound below — not never.
        ++tame_fallbacks;
      }
    }
    ASSERT_EQ(st.status, sr.status)
        << ctx << " reference=" << to_string(st.status)
        << " got=" << to_string(sr.status);
    if (st.status == Status::Optimal) {
      // Equal objectives (the oracle condition) and directly verified
      // primal feasibility — never trust an engine's own verify.
      const double obj_tol = 1e-9 * (1.0 + std::fabs(st.objective));
      EXPECT_NEAR(st.objective, sr.objective, obj_tol) << ctx;
      EXPECT_LE(max_violation(g.p, sr.x), feas_tol) << ctx;
    }
    switch (st.status) {
      case Status::Optimal:
        ++optimal;
        break;
      case Status::Infeasible:
        ++infeasible;
        break;
      case Status::Unbounded:
        ++unbounded;
        break;
      case Status::IterLimit:
        break;
    }
    if (st.status != Status::Optimal) continue;
    EXPECT_LE(max_violation(g.p, st.x), feas_tol) << ctx;
  }
  // The sweep must genuinely exercise every verdict — and the revised
  // engine must genuinely be the one answering — or the generator has
  // rotted and the oracle is vacuous.
  EXPECT_GT(optimal, total / 4);
  EXPECT_GT(infeasible, 0);
  EXPECT_GT(unbounded, 0);
  EXPECT_LE(fallbacks * 10, total)
      << "more than 10% of Revised requests fell back to the tableau";
  // Outside the families built to provoke trouble, fallbacks must stay
  // genuinely exceptional: at most 0.05% of revised solves (and never more
  // than a handful at the default 500-instance budget).
  EXPECT_LE(tame_fallbacks * 2000, std::max(total, 2000))
      << tame_fallbacks << " tame-family tableau fallbacks in " << total
      << " revised solves";
  std::cout << "[differential] " << total << " instances: " << optimal
            << " optimal, " << infeasible << " infeasible, " << unbounded
            << " unbounded, " << fallbacks << " tableau fallbacks ("
            << tame_fallbacks << " on tame families)\n";
}

TEST(LpDifferential, WarmStartedResolvesMatchColdAcrossEngines) {
  // Chained warm starts (the LP2 block pattern, now default-on in suu::api)
  // must not change any optimum, whichever engine recorded the seed and
  // whichever engine consumes it.
  const int total = std::max(20, instance_budget() / 10);
  for (int i = 0; i < total; ++i) {
    util::Rng rng(0xCAFE0000ULL + static_cast<std::uint64_t>(i));
    const Generated g = generate(rng, i % 2);  // lp1/lp2 families
    const std::string ctx =
        std::string("family=") + g.family + " i=" + std::to_string(i);

    const Solution cold = solve_simplex(g.p);
    ASSERT_EQ(cold.status, Status::Optimal) << ctx;

    WarmStart warm;
    warm.basis = cold.basis;
    for (const SimplexEngine engine :
         {SimplexEngine::Tableau, SimplexEngine::Revised}) {
      SimplexOptions opt;
      opt.engine = engine;
      opt.warm = &warm;
      const Solution hot = solve_simplex(g.p, opt);
      ASSERT_EQ(hot.status, Status::Optimal) << ctx;
      EXPECT_NEAR(hot.objective, cold.objective,
                  1e-9 * (1.0 + std::fabs(cold.objective)))
          << ctx << " engine=" << to_string(engine);
      EXPECT_EQ(hot.phase1_iterations, 0)
          << ctx << " engine=" << to_string(engine)
          << " (accepted seed must skip phase 1)";
      warm.basis = cold.basis;  // reseed identically for the next engine
    }
  }
}

// Deterministic n=1024 LP1-shaped instance mirroring the BM_RevisedLp1
// bench family (1024 jobs over 8 machines). Large enough that phase 1
// dominates and the lazy reduced-cost updates run for hundreds of pivots
// between exact refreshes.
Problem gen_lp1_large(std::uint64_t seed, int n_jobs, int n_machines) {
  util::Rng rng(seed);
  Problem p;
  const int t = p.add_var(1.0);
  std::vector<Row> loads(static_cast<std::size_t>(n_machines));
  for (int j = 0; j < n_jobs; ++j) {
    Row cover;
    cover.rel = Rel::Ge;
    cover.rhs = 1.0;
    for (int i = 0; i < n_machines; ++i) {
      if (rng.bernoulli(0.2)) continue;  // incapable pair
      const int v = p.add_var(0.0);
      cover.terms.emplace_back(v, 0.05 + rng.uniform01());
      loads[static_cast<std::size_t>(i)].terms.emplace_back(v, 1.0);
    }
    if (cover.terms.empty()) {
      const int v = p.add_var(0.0);
      cover.terms.emplace_back(v, 0.5);
      loads[0].terms.emplace_back(v, 1.0);
    }
    p.add_row(std::move(cover));
  }
  for (int i = 0; i < n_machines; ++i) {
    Row& load = loads[static_cast<std::size_t>(i)];
    if (load.terms.empty()) continue;
    load.terms.emplace_back(t, -1.0);
    load.rel = Rel::Le;
    load.rhs = 0.0;
    p.add_row(std::move(load));
  }
  return p;
}

TEST(LpDifferential, RevisedColdLargeLp1MatchesTableau) {
  // The revised engine's home regime — a cold n=1024 LP1 through phase 1,
  // no crash basis (this calls solve_simplex directly) — must finish on the
  // revised engine, without a tableau fallback, at the reference optimum.
  // Both runs are fully deterministic (fixed seed, explicit engine, no warm
  // handle), so the Devex pivot count is an exact pin: a change to it is a
  // change of the default revised trajectory and must be deliberate.
  const Problem p = gen_lp1_large(0xB16'1024ULL, 1024, 8);
  SimplexOptions tableau;
  tableau.engine = SimplexEngine::Tableau;
  SimplexOptions revised;
  revised.engine = SimplexEngine::Revised;

  const Solution st = solve_simplex(p, tableau);
  const Solution sr = solve_simplex(p, revised);
  ASSERT_EQ(st.status, Status::Optimal);
  ASSERT_EQ(sr.status, Status::Optimal);
  ASSERT_EQ(sr.engine, SimplexEngine::Revised)
      << "the revised engine fell back to the tableau";
  EXPECT_NEAR(st.objective, sr.objective,
              1e-9 * (1.0 + std::fabs(st.objective)));
  // The pin holds at the default refactorization interval only; the
  // refactor-stress registration refactorizes every pivot, which changes
  // the incremental arithmetic and so the path.
  if (refactor_interval() == kDefaultRefactorInterval) {
    EXPECT_EQ(sr.iterations, 1558);
  }
  std::cout << "[differential] n=1024 lp1 pivots: tableau=" << st.iterations
            << " revised=" << sr.iterations << "\n";
}

core::Instance read_lp2_fixture(const std::string& name) {
  std::ifstream in(std::string(SUU_TEST_CORPUS_DIR) + "/lp2/" + name);
  SUU_CHECK_MSG(in, "missing fixture tests/corpus/lp2/" << name);
  return core::read_instance(in);
}

double tableau_lp2_optimum(const core::Instance& inst) {
  return rounding::solve_and_round_lp2(inst, inst.dag().chains(), nullptr,
                                       SimplexEngine::Tableau)
      .t_fractional;
}

TEST(LpDifferential, RevisedColdLp2FixtureMatchesTableau) {
  // A cold LP2 (88 jobs in chains on 8 machines) on which the revised
  // engine used to report "unbounded": the entering column's FTRAN had no
  // positive entry, and the reduced cost that made the column look
  // improving was an incremental value the lazy pivot update had left
  // stale. Unboundedness is now decided on the exact reduced cost.
  const core::Instance inst = read_lp2_fixture("chains_n88.suu");
  const double reference = tableau_lp2_optimum(inst);
  try {
    const rounding::Lp2Result revised = rounding::solve_and_round_lp2(
        inst, inst.dag().chains(), nullptr, SimplexEngine::Revised);
    // A silent fallback would make the comparison below vacuous.
    EXPECT_EQ(revised.engine, SimplexEngine::Revised)
        << "the revised engine fell back to the tableau";
    EXPECT_NEAR(revised.t_fractional, reference,
                1e-9 * (1.0 + std::fabs(reference)));
  } catch (const std::exception& e) {
    FAIL() << "revised engine did not reach Optimal: " << e.what();
  }
}

TEST(LpDifferential, DefaultLp2FormerFallbackFixtureStaysRevised) {
  // A cold LP2 (50 jobs in chains on 8 machines) on which the same stale
  // reduced cost, hit in phase 1, used to look like numerical trouble and
  // send the default (Auto) solve to the tableau. It now finishes on the
  // revised engine — possibly at another optimal vertex than the tableau,
  // which changes the suu-c replies built on it. The pivot count pins that
  // trajectory: a change to it must be deliberate.
  const core::Instance inst = read_lp2_fixture("chains_n50.suu");
  const double reference = tableau_lp2_optimum(inst);
  const rounding::Lp2Result lp2 =
      rounding::solve_and_round_lp2(inst, inst.dag().chains());
  EXPECT_EQ(lp2.engine, SimplexEngine::Revised)
      << "the default solve fell back to the tableau";
  EXPECT_NEAR(lp2.t_fractional, reference,
              1e-9 * (1.0 + std::fabs(reference)));
  if (refactor_interval() == kDefaultRefactorInterval) {
    EXPECT_EQ(lp2.simplex_iterations, 186);  // see the n=1024 LP1 pin
  }
}

// Note on SUU_LP_REFACTOR_INTERVAL coverage: the env override is read once
// per process, so the scheduled mid-solve refactorization path is stressed
// by a SECOND ctest registration of this binary
// (test_lp_differential_refactor_stress in CMakeLists.txt) that sets
// SUU_LP_REFACTOR_INTERVAL=1 — refactorizing after every pivot is the
// harshest consistency check the eta file can get.

}  // namespace
}  // namespace suu::lp

// Dominance oracle behind the chains/forest lower bound: Lemma 5's LP2
// optimum is at least Lemma 1's LP1(J, 1/2) optimum whenever the chains
// partition J, so algos::lower_bound_chains solves LP2 alone.
//
// The argument: LP2 asks every job for mass 1 with ℓ' = min(ℓ, 1), and
// LP1(J, 1/2) asks for mass 1/2 with min(ℓ, 1/2) >= (1/2)·min(ℓ, 1). Every
// LP2-feasible x is therefore LP1(J, 1/2)-feasible with the same loads. The
// test checks t_LP2 >= t_LP1(J, 1/2)·(1 - 1e-12) (the slack admits
// last-bit ties between two different simplex runs) on the chains,
// in-forest and out-forest generators, with the chains lower_bound_auto
// uses: dag.chains() for chain dags, the forest decomposition's blocks for
// forests. It also checks that those chains partition J, which the
// argument needs. Every fixture in tests/corpus/lp2/ runs too.
//
// Instance count comes from SUU_DIFFERENTIAL_INSTANCES (default 200), like
// the other differential suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "chains/decomposition.hpp"
#include "core/generators.hpp"
#include "core/instance.hpp"
#include "core/io.hpp"
#include "rounding/lp1.hpp"
#include "rounding/lp2.hpp"
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

/// The chains api::lower_bound_auto hands to LP2.
std::vector<std::vector<int>> lower_bound_chains_of(const core::Dag& dag) {
  if (dag.is_chains()) return dag.chains();
  std::vector<std::vector<int>> all;
  for (const auto& block : chains::decompose_forest(dag).blocks) {
    all.insert(all.end(), block.begin(), block.end());
  }
  return all;
}

::testing::AssertionResult partitions_jobs(
    const std::vector<std::vector<int>>& chains, int n) {
  std::vector<int> seen(static_cast<std::size_t>(n), 0);
  for (const auto& chain : chains) {
    for (const int j : chain) {
      if (j < 0 || j >= n) {
        return ::testing::AssertionFailure() << "job " << j << " out of range";
      }
      ++seen[static_cast<std::size_t>(j)];
    }
  }
  for (int j = 0; j < n; ++j) {
    if (seen[static_cast<std::size_t>(j)] != 1) {
      return ::testing::AssertionFailure()
             << "job " << j << " appears " << seen[static_cast<std::size_t>(j)]
             << " times";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Checks the partition and the dominance on one instance.
void expect_lp2_dominates(const core::Instance& inst, const std::string& what) {
  const std::vector<std::vector<int>> chains =
      lower_bound_chains_of(inst.dag());
  ASSERT_TRUE(partitions_jobs(chains, inst.num_jobs())) << what;
  std::vector<int> all(static_cast<std::size_t>(inst.num_jobs()));
  for (int j = 0; j < inst.num_jobs(); ++j) all[static_cast<std::size_t>(j)] = j;
  const double lp1 = rounding::solve_lp1(inst, all, 0.5).lower_bound;
  const double lp2 =
      rounding::solve_and_round_lp2(inst, chains).t_fractional;
  EXPECT_GE(lp2, lp1 * (1.0 - 1e-12))
      << what << ": t_LP2 " << lp2 << " < t_LP1(J, 1/2) " << lp1;
}

core::MachineModel model_of(std::uint64_t k) {
  switch (k % 5) {
    case 0:
      return core::MachineModel::uniform(0.3, 0.9);
    case 1:
      return core::MachineModel::uniform(0.02, 0.6);
    case 2:
      return core::MachineModel::classes();
    case 3:
      return core::MachineModel::sparse(0.4, 0.2, 0.9);
    default:
      return core::MachineModel::identical(0.5);
  }
}

TEST(Lp2DominatesLp1, GeneratedChainsAndForests) {
  const long budget = instance_budget();
  for (long trial = 0; trial < budget; ++trial) {
    util::Rng rng(9100 + static_cast<std::uint64_t>(trial));
    const int m = 2 + static_cast<int>(rng.uniform_below(15));
    const core::MachineModel model =
        model_of(static_cast<std::uint64_t>(trial) / 3);
    const core::Instance inst = [&] {
      switch (trial % 3) {
        case 0:
          return core::make_chains(2 + static_cast<int>(rng.uniform_below(11)),
                                   2, 8, m, model, rng);
        case 1:
          return core::make_in_forest(
              10 + static_cast<int>(rng.uniform_below(90)), m, 0.2, 3, model,
              rng);
        default:
          return core::make_out_forest(
              10 + static_cast<int>(rng.uniform_below(90)), m, 0.2, 3, model,
              rng);
      }
    }();
    expect_lp2_dominates(inst, "trial " + std::to_string(trial));
  }
}

TEST(Lp2DominatesLp1, CorpusFixtures) {
  const std::filesystem::path dir =
      std::filesystem::path(SUU_TEST_CORPUS_DIR) / "lp2";
  int fixtures = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path());
    ASSERT_TRUE(in) << entry.path();
    expect_lp2_dominates(core::read_instance(in),
                         entry.path().filename().string());
    ++fixtures;
  }
  EXPECT_GT(fixtures, 0) << "no fixtures in " << dir;
}

}  // namespace
}  // namespace suu

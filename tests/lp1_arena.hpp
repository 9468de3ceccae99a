// LP1's dense arena (rows × standard-form columns) for a job set: the shape
// lp::lp1_engine tests. A cover row per job and a load row per used
// machine, by t, the capable pairs, a slack per row and an artificial per
// cover row — the standard form rounding::solve_lp1 builds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/instance.hpp"

namespace suu::rounding {

inline std::int64_t lp1_arena(const core::Instance& inst,
                              const std::vector<int>& jobs, double L) {
  std::int64_t pairs = 0;
  std::vector<char> used(static_cast<std::size_t>(inst.num_machines()), 0);
  for (const int j : jobs) {
    for (int i = 0; i < inst.num_machines(); ++i) {
      if (inst.ell_capped(i, j, L) > 1e-12) {
        ++pairs;
        used[static_cast<std::size_t>(i)] = 1;
      }
    }
  }
  const auto n_jobs = static_cast<std::int64_t>(jobs.size());
  const std::int64_t rows = n_jobs + std::count(used.begin(), used.end(), 1);
  return rows * (rows + 1 + pairs + n_jobs);
}

}  // namespace suu::rounding

#include "algos/lower_bounds.hpp"

#include <algorithm>
#include <cmath>

#include "rounding/lp2.hpp"

namespace suu::algos {

LowerBound lower_bound_independent(const core::Instance& inst,
                                   const rounding::Lp1Options& opt,
                                   const SolvedOptima& known) {
  double lp1 = known.lp1;
  if (std::isnan(lp1)) {
    std::vector<int> all(inst.num_jobs());
    for (int j = 0; j < inst.num_jobs(); ++j) all[j] = j;
    lp1 = rounding::solve_lp1(inst, all, 0.5, opt).lower_bound;
  }
  LowerBound lb;
  lb.lp1_half = lp1 / 2.0;
  lb.value = std::max(1.0, lb.lp1_half);
  return lb;
}

LowerBound lower_bound_chains(const core::Instance& inst,
                              const std::vector<std::vector<int>>& chains,
                              const rounding::Lp1Options& opt,
                              const SolvedOptima& known) {
  const double lp2 =
      std::isnan(known.lp2)
          ? rounding::solve_and_round_lp2(inst, chains, nullptr, opt.engine)
                .t_fractional
          : known.lp2;
  LowerBound lb;
  lb.lp2_half = lp2 / 2.0;
  lb.value = std::max(1.0, lb.lp2_half);
  return lb;
}

}  // namespace suu::algos

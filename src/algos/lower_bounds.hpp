// Lower bounds on E[T_OPT] used as the denominator of every measured
// approximation ratio.
//
// Lemma 1 / Appendix D: E[T_OPT] >= (1/2) * t_LP1(J, 1/2) — the optimum must
// deliver 1/2 a unit of log mass to every job whose hidden r_j exceeds 1/2,
// and averaging over the uniformly random subset U of such jobs gives the
// bound. The derivation never uses independence, so it applies verbatim to
// chain and forest instances.
//
// Lemma 5 (via [11, Lemma 4.2]): the fractional LP2 optimum is O(E[T_OPT]);
// we use t_LP2 / 2 and record the constant in docs/benchmarks.md. For
// forests we evaluate LP2 on the chain decomposition (dropping cross-block
// edges only relaxes the program, so it stays a valid bound).
//
// When chains are given, LP2 alone is the bound: it dominates LP1(J, 1/2).
// The chains partition J, and LP2 asks every job for mass 1 with
// ℓ' = min(ℓ, 1), while LP1(J, 1/2) asks for mass 1/2 with min(ℓ, 1/2).
// Since min(ℓ, 1/2) >= (1/2)·min(ℓ, 1), every LP2-feasible x is
// LP1(J, 1/2)-feasible with the same loads, so t_LP2 >= t_LP1(J, 1/2)
// (pinned by tests/test_lp2_dominates_lp1.cpp).
#pragma once

#include <limits>
#include <vector>

#include "core/instance.hpp"
#include "rounding/lp1.hpp"

namespace suu::algos {

struct LowerBound {
  /// t_LP1(J, 1/2) / 2 (certified fractional LB); 0 when chains are given,
  /// since LP2 dominates it there.
  double lp1_half = 0.0;
  double lp2_half = 0.0;  ///< t_LP2 / 2 when chains are given, else 0
  double value = 1.0;     ///< max(1, lp1_half, lp2_half)
};

/// Program optima a caller already solved for the same instance, with the
/// same LP options and from a cold start (a warm seed may end at another
/// optimal vertex whose objective differs in the last bits). The bound
/// functions use a known value instead of re-solving its program, so the
/// result is bit-identical to a from-scratch bound. NaN = not known.
struct SolvedOptima {
  /// Certified lower bound of LP1(J, 1/2) over every job (the round-1 LP of
  /// SUU-I-OBL/SEM: Lp1Fractional::lower_bound).
  double lp1 = std::numeric_limits<double>::quiet_NaN();
  /// Fractional LP2 optimum over the instance's own chains (SUU-C's
  /// Lp2Result::t_fractional).
  double lp2 = std::numeric_limits<double>::quiet_NaN();
};

/// Lemma 1 bound (valid for any precedence structure).
LowerBound lower_bound_independent(const core::Instance& inst,
                                   const rounding::Lp1Options& opt = {},
                                   const SolvedOptima& known = {});

/// Lemma 5 bound for an instance with the given disjoint chains. Chains
/// that cover every job (dag.chains() and the forest blocks do) make it
/// dominate Lemma 1, so LP1 is not solved and known.lp1 is not used.
/// known.lp2 must come from these same chains.
LowerBound lower_bound_chains(const core::Instance& inst,
                              const std::vector<std::vector<int>>& chains,
                              const rounding::Lp1Options& opt = {},
                              const SolvedOptima& known = {});

}  // namespace suu::algos

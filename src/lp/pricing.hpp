// Entering-variable pricing for the simplex engines.
//
// Each engine has one fixed rule:
//
//  - The tableau prices by Dantzig ("most negative reduced cost", ties to
//    the lowest index). Its pivot trajectories are byte-recorded in the
//    table1 experiments, so the rule is part of the output contract.
//  - The revised engine prices by Devex (Harris '73, as formulated by
//    Forrest–Goldfarb '92). Dantzig pricing is scale-sensitive: a column
//    whose reduced cost looks steep only because its FTRAN'd image is long
//    gets picked again and again. Devex normalizes by a reference weight
//    w_j that approximates the squared edge norm ||B^{-1} a_j||^2 relative
//    to a reference framework (the nonbasic set at the last reset), and
//    selects
//
//        maximize  d_j^2 / w_j   over improving columns (d_j < -tol)
//
//    Per pivot, for every column j in the pivot row's support with ratio
//    r_j = alpha_rj / alpha_rq:
//        w_j <- max(w_j, r_j^2 * w_q)
//    and the leaving variable gets max(w_q / piv^2, 1). That costs nothing
//    beyond the pivot row itself, and on cold LP2 it takes about a third of
//    Dantzig's pivots.
//
// Devex only re-ranks columns that are already improving. Which columns
// COUNT as improving, and every verdict — optimal, unbounded, Bland's
// choice under stalling — comes from exact reduced costs, so the two
// engines reach the same verdict and objective under the differential
// oracle: the rule changes the path, never the answer.
#pragma once

#include <vector>

namespace suu::lp::pricing {

/// Weights above this trigger a framework reset (all weights back to 1):
/// the reference framework has drifted too far for the approximation to
/// mean anything, and oversized weights would just freeze those columns out.
inline constexpr double kWeightResetThreshold = 1e7;

/// Devex reference weights. Empty until reset(n) is called (the revised
/// engine resets per objective load: each phase starts a fresh reference
/// framework).
class ReferenceWeights {
 public:
  void reset(int n) {
    w_.assign(static_cast<std::size_t>(n), 1.0);
    needs_reset_ = false;
  }

  double operator[](int j) const { return w_[static_cast<std::size_t>(j)]; }

  /// Selection score for an improving column: d^2 / w_j. Larger is better.
  double score(int j, double d) const {
    return d * d / w_[static_cast<std::size_t>(j)];
  }

  /// Devex update for a pivot-row column with ratio r = alpha_rj/alpha_rq,
  /// where wq is the entering column's weight before the pivot.
  void note_devex(int j, double ratio, double wq) {
    const double cand = ratio * ratio * wq;
    double& w = w_[static_cast<std::size_t>(j)];
    if (cand > w) {
      w = cand;
      if (cand > kWeightResetThreshold) needs_reset_ = true;
    }
  }

  /// Weight of the variable leaving on a pivot with element `piv`, given
  /// the entering column's pre-pivot weight.
  void set_leaving(int j, double entering_weight, double piv) {
    double w = entering_weight / (piv * piv);
    if (w < 1.0) w = 1.0;
    w_[static_cast<std::size_t>(j)] = w;
    if (w > kWeightResetThreshold) needs_reset_ = true;
  }

  /// True once any weight crossed kWeightResetThreshold; the engine is
  /// expected to call reset(n) at the next convenient point.
  bool needs_reset() const { return needs_reset_; }

 private:
  std::vector<double> w_;
  bool needs_reset_ = false;
};

}  // namespace suu::lp::pricing

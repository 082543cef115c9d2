#pragma once
// The paper's cost function (Equations 2-3):
//
//   COST(P) = Σ_{i,j} f(w_ij, d_{P_i P_j})
//           = Σ_{i,j} AG(i,j) · LT(P_i, P_j) + CG(i,j) / BT(P_i, P_j)
//
// plus O(degree) incremental evaluation for move/swap local search
// (MPIPP's pairwise exchange and the Monte Carlo sampler both live on
// these deltas).

#include "common/types.h"
#include "mapping/problem.h"

namespace geomap::mapping {

/// Paper Equation (2): COST(P), the alpha-beta cost of `mapping` summed
/// over the edges of `comm` in row order. O(nnz). `mapping` must be
/// complete (no kUnmapped).
Seconds alpha_beta_cost(const trace::CommMatrix& comm,
                        const net::NetworkModel& model, const Mapping& mapping);

/// COST(P) split per ordered site pair into its Equation (3) terms —
/// the attribution view behind the mapper decision audit trail. All
/// matrices are num_sites × num_sites, row-major, indexed [src*M + dst].
struct CostBreakdown {
  int num_sites = 0;
  std::vector<Seconds> alpha;   // Σ over pair's edges of AG · LT
  std::vector<Seconds> beta;    // Σ over pair's edges of CG / BT
  std::vector<double> messages;  // Σ AG (message counts)
  std::vector<Bytes> bytes;      // Σ CG (volumes)
  /// Accumulated with the identical edge order and arithmetic as
  /// CostEvaluator::total_cost, so it reproduces that value bit-for-bit.
  Seconds total = 0;

  Seconds alpha_at(SiteId src, SiteId dst) const {
    return alpha[static_cast<std::size_t>(src) *
                     static_cast<std::size_t>(num_sites) +
                 static_cast<std::size_t>(dst)];
  }
  Seconds beta_at(SiteId src, SiteId dst) const {
    return beta[static_cast<std::size_t>(src) *
                    static_cast<std::size_t>(num_sites) +
                static_cast<std::size_t>(dst)];
  }
};

class CostEvaluator {
 public:
  explicit CostEvaluator(const MappingProblem& problem) : p_(&problem) {}

  /// Full cost: alpha_beta_cost over the problem's pattern and network.
  Seconds total_cost(const Mapping& mapping) const;

  /// Full cost plus its per-site-pair alpha/beta attribution. The
  /// returned total is bit-identical to total_cost(mapping).
  CostBreakdown breakdown(const Mapping& mapping) const;

  /// Cost contribution of all edges incident to process i under `mapping`
  /// (both directions). O(deg(i)).
  Seconds incident_cost(const Mapping& mapping, ProcessId i) const;

  /// Cost change if process i moved to site `to` (everything else fixed).
  /// O(deg(i)). Negative = improvement.
  Seconds delta_move(const Mapping& mapping, ProcessId i, SiteId to) const;

  /// Cost change if processes a and b swapped sites. O(deg(a)+deg(b)).
  /// `mapping` is temporarily mutated and restored before returning.
  Seconds delta_swap(Mapping& mapping, ProcessId a, ProcessId b) const;

  const MappingProblem& problem() const { return *p_; }

 private:
  Seconds edge_cost(SiteId from, SiteId to, Bytes volume, double count) const {
    return p_->network.message_cost(from, to, count, volume);
  }

  const MappingProblem* p_;
};

}  // namespace geomap::mapping

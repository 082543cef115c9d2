#pragma once
// The paper's proposed Geo-distributed process mapping algorithm
// (Section 4, Algorithm 1):
//
//   1. k-means the M sites into κ groups by physical coordinates;
//   2. pre-map constrained processes and shrink site capacities;
//   3. for every order θ of the κ groups:
//        visit each group's sites largest-available-capacity first;
//        seed each site with the globally heaviest unselected process,
//        then repeatedly add the unselected process with the heaviest
//        communication to the processes already in that site, to capacity;
//   4. keep the order with the minimum COST(P^θ).
//
// Complexity O(κ! · N²) with the paper's naive fill; this implementation
// also provides a heap-accelerated fill (lazy-deletion max-heap over
// sparse affinity updates; each of the M site fills seeds its heap with
// every unselected process, so O(M·N log N + nnz log N) per order) that
// produces identical mappings — a property the test suite asserts — plus
// parallel evaluation of the κ! orders.

#include <cstdint>

#include "core/grouping.h"
#include "mapping/mapper.h"

namespace geomap::obs {
class Collector;
}

namespace geomap::core {

struct GeoDistOptions {
  /// κ: number of k-means groups (paper: "usually less than 5").
  int kappa = 4;

  /// Disable to treat every site as its own group (pure order search over
  /// sites; cost grows M! — the ablation for the grouping optimization).
  bool use_grouping = true;

  /// Where the grouping distance comes from: physical coordinates (the
  /// paper), calibrated latency (extension, for deployments without
  /// coordinates), or automatic (coordinates when available, else
  /// latency).
  enum class GroupingSource { kAuto, kCoordinates, kLatency };
  GroupingSource grouping_source = GroupingSource::kAuto;

  /// Disable to evaluate only the identity group order (ablation for the
  /// κ! order search).
  bool search_orders = true;

  /// Fill-engine selection (kNaive is the paper's O(N²) loop).
  enum class FillEngine { kNaive, kHeap };
  FillEngine fill = FillEngine::kHeap;

  /// Hierarchical recursion (paper Section 4.2: "recursively apply the
  /// proposed algorithm inside each group"): first map processes to
  /// *groups* treated as large sites (order search at the group level
  /// over group-averaged LT/BT), then recursively solve each group's
  /// internal mapping over its member sites. Off by default: the flat
  /// Algorithm 1 (group order search + capacity-ordered sites within
  /// groups) is the variant the paper's pseudo-code spells out.
  bool hierarchical = false;

  /// Evaluate group orders concurrently with parallel_for.
  bool parallel_orders = true;

  /// Refuse order searches beyond this many permutations (8! guard).
  int max_orders = 40320;

  KMeansOptions kmeans;

  /// Observability (opt-in, not owned): when set, map() traces its order
  /// search, records mapper metrics, and files a decision audit entry —
  /// every enumerated group order with its per-site-pair alpha/beta cost
  /// decomposition. With nullptr (default) the search runs the exact
  /// uninstrumented code path and produces bit-identical mappings.
  obs::Collector* collector = nullptr;
};

class GeoDistMapper : public mapping::Mapper {
 public:
  explicit GeoDistMapper(GeoDistOptions options = {}) : options_(options) {}

  Mapping map(const mapping::MappingProblem& problem) override;
  std::string name() const override { return "Geo-distributed"; }

  /// The grouping used by the last map() call (for inspection/benches).
  const Grouping& last_grouping() const { return last_grouping_; }

  /// Number of group orders evaluated by the last map() call.
  int last_orders_evaluated() const { return last_orders_; }

 private:
  GeoDistOptions options_;
  Grouping last_grouping_;
  int last_orders_ = 0;
};

/// Fill a mapping for one specific group order. Exposed for tests and the
/// ablation benches. `group_order` is a permutation of group indices.
Mapping fill_for_order(const mapping::MappingProblem& problem,
                       const Grouping& grouping,
                       const std::vector<GroupId>& group_order,
                       GeoDistOptions::FillEngine engine);

}  // namespace geomap::core

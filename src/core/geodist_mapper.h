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
// Complexity O(κ! · N²) with the paper's naive fill. This implementation
// builds what no order changes once per call (the constrained partial
// mapping, the traffic order of the seed picks, each site's pinned
// processes, each group's site order) and adds a heap fill: an indexed
// max-heap over (affinity, lower id first) holds at most one entry per
// process, raised in place by sparse affinity updates, and zero-affinity
// picks come from a lowest-id cursor. A site fill costs O((k + e) log N)
// for its k picks and the e edges of its members (pinned residents
// included), plus cursor walks of at most O(N).
//
// The search walks the order tree depth first, in lexicographic order.
// Orders that share a prefix share its fill, and an undo log takes it
// back before the next sibling: Σ_{l=1..κ} κ!/(κ−l)! group fills (64 at
// κ = 4, 1 956 at κ = 6) instead of κ·κ!, plus an O(nnz) evaluation per
// order. Parallel tasks are the prefixes at the depth d that minimizes
// ⌈P_d / W⌉ × (fills per task), P_d = κ!/(κ−d)! on W workers; each task
// keeps the mapping of its first cheapest order, so the winner is not
// filled again. The test suite asserts that the heap fill matches the
// naive one and the search matches plain enumeration of every order.

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

  /// Search the order tree's subtrees concurrently with parallel_for.
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
/// ablation benches. `group_order` lists group indices, each at most once
/// (a permutation of them for a full fill); a repeated or out-of-range
/// index throws.
Mapping fill_for_order(const mapping::MappingProblem& problem,
                       const Grouping& grouping,
                       const std::vector<GroupId>& group_order,
                       GeoDistOptions::FillEngine engine);

}  // namespace geomap::core

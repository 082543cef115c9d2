#pragma once
// The paper's Algorithm 1 fill as the O(N²) loop it spells out, kept as
// the differential oracle of GeoDistMapper's heap fill, and the plain
// enumeration of every group order that the mapper's depth-first order
// search replaces. A group's sites are sorted by their free capacities
// when its turn comes, the residents a site already holds are found by a
// scan, and every pick after a site's seed scans all unselected processes
// for the most affinity, lowest id first.

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/error.h"
#include "core/grouping.h"
#include "mapping/allowed_sites.h"
#include "mapping/cost.h"
#include "mapping/mapper.h"
#include "mapping/problem.h"

namespace geomap::testutil {

/// Algorithm 1's fill of `group_order` (group indices, each at most once),
/// with any stragglers that allowed-site sets leave placed by
/// mapping::complete_assignment, unpinned processes moving only where
/// necessary.
inline Mapping oracle_fill_for_order(const mapping::MappingProblem& p,
                                     const core::Grouping& grouping,
                                     const std::vector<GroupId>& group_order) {
  const auto slot = [](int id) { return static_cast<std::size_t>(id); };
  const int n = p.num_processes();
  auto [mapping, free] = mapping::apply_constraints(p);
  std::vector<char> selected(slot(n), 0);
  int num_unselected = 0;
  for (ProcessId i = 0; i < n; ++i) {
    selected[slot(i)] = mapping[slot(i)] != kUnmapped ? 1 : 0;
    if (!selected[slot(i)]) ++num_unselected;
  }
  // Line 9's seed: the globally heaviest unselected process (ties to the
  // lower id), the first unselected entry of this order that may join.
  std::vector<ProcessId> by_traffic(slot(n));
  std::iota(by_traffic.begin(), by_traffic.end(), 0);
  std::stable_sort(by_traffic.begin(), by_traffic.end(),
                   [&](ProcessId a, ProcessId b) {
                     return p.comm.process_traffic(a) >
                            p.comm.process_traffic(b);
                   });

  // affinity[q]: the undirected volume between q and the processes in the
  // site being filled.
  std::vector<Bytes> affinity(slot(n), 0.0);
  const auto join = [&](ProcessId t) {
    const trace::CommMatrix::Row r = p.comm.undirected_row(t);
    for (std::size_t k = 0; k < r.size(); ++k)
      if (!selected[slot(r.dst[k])]) affinity[slot(r.dst[k])] += r.volume[k];
  };
  const auto select = [&](ProcessId t, SiteId site) {
    mapping[slot(t)] = site;
    selected[slot(t)] = 1;
    --free[slot(site)];
    --num_unselected;
  };

  for (const GroupId g : group_order) {
    // Line 10: the group's sites largest available capacity first, ties
    // in member order.
    std::vector<SiteId> sites = grouping.members[slot(g)];
    std::stable_sort(sites.begin(), sites.end(), [&](SiteId a, SiteId b) {
      return free[slot(a)] > free[slot(b)];
    });
    for (const SiteId site : sites) {
      if (free[slot(site)] == 0) continue;
      if (num_unselected == 0) break;
      std::fill(affinity.begin(), affinity.end(), 0.0);
      for (ProcessId q = 0; q < n; ++q)
        if (selected[slot(q)] && mapping[slot(q)] == site) join(q);
      for (bool first = true; free[slot(site)] > 0 && num_unselected > 0;
           first = false) {
        ProcessId pick = -1;
        if (first) {
          for (const ProcessId t : by_traffic) {
            if (!selected[slot(t)] && p.placement_allowed(t, site)) {
              pick = t;
              break;
            }
          }
        } else {
          Bytes best = -1.0;
          for (ProcessId q = 0; q < n; ++q) {
            if (selected[slot(q)] || !p.placement_allowed(q, site)) continue;
            if (affinity[slot(q)] > best) {
              best = affinity[slot(q)];
              pick = q;
            }
          }
        }
        if (pick < 0) break;  // nothing placeable here
        select(pick, site);
        join(pick);
      }
    }
  }

  if (num_unselected > 0) {
    std::vector<char> movable(mapping.size(), 1);
    for (std::size_t i = 0; i < p.constraints.size(); ++i)
      if (p.constraints[i] != kUnconstrained) movable[i] = 0;
    GEOMAP_CHECK_MSG(mapping::complete_assignment(p, mapping, free, movable),
                     "no feasible completion for the allowed-site constraints");
  }
  return mapping;
}

/// The paper's order search: every order of the groups filled from scratch
/// by oracle_fill_for_order, in lexicographic order, keeping the first
/// cheapest by total_cost. Without `search_orders` only the identity
/// order.
inline Mapping plain_enumeration(const mapping::MappingProblem& p,
                                 const core::Grouping& grouping,
                                 bool search_orders) {
  const mapping::CostEvaluator eval(p);
  std::vector<GroupId> order(static_cast<std::size_t>(grouping.num_groups));
  std::iota(order.begin(), order.end(), 0);
  Mapping best;
  Seconds best_cost = 0;
  do {
    Mapping m = oracle_fill_for_order(p, grouping, order);
    const Seconds cost = eval.total_cost(m);
    if (best.empty() || cost < best_cost) {
      best = std::move(m);
      best_cost = cost;
    }
  } while (search_orders && std::next_permutation(order.begin(), order.end()));
  return best;
}

}  // namespace geomap::testutil

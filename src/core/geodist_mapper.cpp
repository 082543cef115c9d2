#include "core/geodist_mapper.h"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <tuple>

#include "common/error.h"
#include "common/parallel.h"
#include "mapping/allowed_sites.h"
#include "mapping/cost.h"
#include "obs/collector.h"

namespace geomap::core {

namespace {

using mapping::MappingProblem;

/// Everything a fill needs that does not depend on the group order, built
/// once per map() call and shared read-only by the search's tasks.
struct FillPlan {
  const MappingProblem* p = nullptr;
  const Grouping* grouping = nullptr;
  /// The partial mapping after constraint pre-assignment, and the free
  /// capacity it leaves on each site.
  Mapping partial;
  std::vector<int> free;
  int num_unselected = 0;
  /// Process ids sorted by descending total traffic, tie low id first
  /// (Algorithm 1 line 9 seed picks scan this with a cursor).
  std::vector<ProcessId> by_traffic;
  /// pinned[s]: the processes pinned to site s, ascending id. A site is
  /// filled once per order, so when its fill starts these are the only
  /// processes on it.
  std::vector<std::vector<ProcessId>> pinned;
  /// sites[g]: group g's sites largest-available-capacity first, ties in
  /// member order (Algorithm 1 line 10). Nothing fills a group's sites
  /// before its turn, so the order is the same for every group order.
  std::vector<std::vector<SiteId>> sites;

  FillPlan(const MappingProblem& problem, const Grouping& groups)
      : p(&problem), grouping(&groups) {
    std::tie(partial, free) = mapping::apply_constraints(problem);
    const int n = problem.num_processes();
    pinned.resize(free.size());
    for (ProcessId i = 0; i < n; ++i) {
      const SiteId s = partial[static_cast<std::size_t>(i)];
      if (s == kUnmapped)
        ++num_unselected;
      else
        pinned[static_cast<std::size_t>(s)].push_back(i);
    }
    by_traffic.resize(static_cast<std::size_t>(n));
    std::iota(by_traffic.begin(), by_traffic.end(), 0);
    std::stable_sort(by_traffic.begin(), by_traffic.end(),
                     [&](ProcessId a, ProcessId b) {
                       return problem.comm.process_traffic(a) >
                              problem.comm.process_traffic(b);
                     });
    sites = groups.members;
    for (std::vector<SiteId>& group_sites : sites) sort_by_free(group_sites, free);
  }

  /// Algorithm 1 line 10: largest available capacity first, ties kept in
  /// order.
  static void sort_by_free(std::vector<SiteId>& group_sites,
                           const std::vector<int>& free_caps) {
    std::stable_sort(group_sites.begin(), group_sites.end(),
                     [&](SiteId a, SiteId b) {
                       return free_caps[static_cast<std::size_t>(a)] >
                              free_caps[static_cast<std::size_t>(b)];
                     });
  }
};

/// A fill in progress, reused across the orders of one search task: the
/// selections, free capacities and both pick cursors, plus an undo log
/// that takes them back to any earlier group boundary.
///
/// affinity[q] accumulates the undirected volume between q and the
/// processes already in the site being filled; a touched-list resets it
/// in O(|touched|) after each site. The heap engine also keeps an indexed
/// binary max-heap over (affinity, lower id first) with at most one entry
/// per process, raised in place as its affinity grows. Only positive
/// affinities enter it; a zero-affinity pick is the lowest unselected id,
/// read from a cursor.
struct FillState {
  const FillPlan* plan;
  const MappingProblem* p;
  GeoDistOptions::FillEngine engine;
  Mapping mapping;
  std::vector<int> free;
  std::vector<char> selected;
  int num_unselected;
  /// Every process before by_traffic[traffic_cursor] is selected, and so
  /// is every id below zero_cursor.
  std::size_t traffic_cursor = 0;
  std::size_t zero_cursor = 0;
  std::vector<ProcessId> log;  // selections, oldest first

  std::vector<Bytes> affinity;
  std::vector<ProcessId> touched;

  struct HeapEntry {
    Bytes affinity;
    ProcessId id;
  };
  std::vector<HeapEntry> heap;
  std::vector<int> heap_pos;  // index into heap, -1 when absent

  FillState(const FillPlan& fill_plan, GeoDistOptions::FillEngine fill_engine)
      : plan(&fill_plan),
        p(fill_plan.p),
        engine(fill_engine),
        mapping(fill_plan.partial),
        free(fill_plan.free),
        selected(mapping.size(), 0),
        num_unselected(fill_plan.num_unselected),
        affinity(mapping.size(), 0.0),
        heap_pos(mapping.size(), -1) {
    for (std::size_t i = 0; i < mapping.size(); ++i)
      selected[i] = mapping[i] != kUnmapped ? 1 : 0;
  }

  struct Mark {
    std::size_t log = 0;
    std::size_t traffic_cursor = 0;
    std::size_t zero_cursor = 0;
  };
  Mark mark() const { return Mark{log.size(), traffic_cursor, zero_cursor}; }

  void undo(const Mark& m) {
    while (log.size() > m.log) {
      const auto t = static_cast<std::size_t>(log.back());
      log.pop_back();
      ++free[static_cast<std::size_t>(mapping[t])];
      mapping[t] = kUnmapped;
      selected[t] = 0;
      ++num_unselected;
    }
    traffic_cursor = m.traffic_cursor;
    zero_cursor = m.zero_cursor;
  }

  void fill_group(GroupId g) {
    const bool naive = engine == GeoDistOptions::FillEngine::kNaive;
    std::vector<SiteId> live_order;
    if (naive) {
      // The oracle sorts by the live capacities, as Algorithm 1 line 10
      // reads, instead of trusting the plan's precomputed order.
      live_order = plan->grouping->members[static_cast<std::size_t>(g)];
      FillPlan::sort_by_free(live_order, free);
    }
    for (const SiteId site :
         naive ? live_order : plan->sites[static_cast<std::size_t>(g)]) {
      if (free[static_cast<std::size_t>(site)] == 0) continue;  // line 6
      if (num_unselected == 0) break;
      fill_site(site);
    }
  }

  void fill_site(SiteId site) {
    const bool naive = engine == GeoDistOptions::FillEngine::kNaive;
    // Pinned processes already resident in this site attract their
    // neighbours from the first pick. The naive oracle finds them by a
    // scan; the heap engine reads the plan's list, in the same id order.
    if (naive) {
      for (ProcessId q = 0; q < p->num_processes(); ++q) {
        if (selected[static_cast<std::size_t>(q)] &&
            mapping[static_cast<std::size_t>(q)] == site)
          add_member_affinity(q);
      }
    } else {
      for (const ProcessId q : plan->pinned[static_cast<std::size_t>(site)])
        add_member_affinity(q);
    }

    // Lowest id not yet ruled out for this site (heap engine): everything
    // below it is selected or disallowed here, and stays so while the
    // site fills.
    std::size_t lowest = 0;
    for (bool first = true;
         free[static_cast<std::size_t>(site)] > 0 && num_unselected > 0;
         first = false) {
      const ProcessId pick = first   ? heaviest_unselected_for(site)
                             : naive ? naive_pick(site)
                                     : heap_pick(site, lowest);
      if (pick < 0) break;  // nothing placeable here (allowed-site sets)
      select(pick, site);
      add_member_affinity(pick);
    }
    for (const ProcessId q : touched)
      affinity[static_cast<std::size_t>(q)] = 0.0;
    touched.clear();
    for (const HeapEntry& e : heap)
      heap_pos[static_cast<std::size_t>(e.id)] = -1;
    heap.clear();
  }

  void select(ProcessId t, SiteId site) {
    mapping[static_cast<std::size_t>(t)] = site;
    selected[static_cast<std::size_t>(t)] = 1;
    --free[static_cast<std::size_t>(site)];
    --num_unselected;
    log.push_back(t);
  }

  /// Add t's undirected edges into the affinity of its unselected
  /// neighbours (called when t joins the current site). A zero volume
  /// leaves an affinity unchanged, so it is skipped.
  void add_member_affinity(ProcessId t) {
    const trace::CommMatrix::Row r = p->comm.undirected_row(t);
    for (std::size_t k = 0; k < r.size(); ++k) {
      const ProcessId q = r.dst[k];
      const auto qi = static_cast<std::size_t>(q);
      if (selected[qi] || r.volume[k] == 0.0) continue;
      if (affinity[qi] == 0.0) touched.push_back(q);
      affinity[qi] += r.volume[k];
      if (engine == GeoDistOptions::FillEngine::kHeap)
        heap_raise(q, affinity[qi]);
    }
  }

  /// Globally heaviest unselected process placeable on `site` (Algorithm
  /// 1 line 9; -1 when none qualifies). The cursor only advances past
  /// *selected* processes — an alive process skipped for being disallowed
  /// on this site must stay reachable for later sites.
  ProcessId heaviest_unselected_for(SiteId site) {
    const std::vector<ProcessId>& order = plan->by_traffic;
    while (traffic_cursor < order.size() &&
           selected[static_cast<std::size_t>(order[traffic_cursor])])
      ++traffic_cursor;
    for (std::size_t c = traffic_cursor; c < order.size(); ++c) {
      const ProcessId t = order[c];
      if (!selected[static_cast<std::size_t>(t)] &&
          p->placement_allowed(t, site))
        return t;
    }
    return -1;
  }

  /// The paper's pick, O(N): scan all unselected processes for the
  /// affinity argmax (tie: lowest id).
  ProcessId naive_pick(SiteId site) const {
    ProcessId pick = -1;
    Bytes best = -1.0;
    for (ProcessId q = 0; q < p->num_processes(); ++q) {
      if (selected[static_cast<std::size_t>(q)]) continue;
      if (!p->placement_allowed(q, site)) continue;
      const Bytes a = affinity[static_cast<std::size_t>(q)];
      if (a > best) {
        best = a;
        pick = q;
      }
    }
    return pick;
  }

  /// The naive pick in O(log N): the heap answers while it holds a live
  /// entry, unselected and placeable here (an entry for a process that
  /// cannot join this site is dropped; a later affinity gain pushes it
  /// again). Otherwise every placeable process has zero affinity, and the
  /// pick is the lowest such id.
  ProcessId heap_pick(SiteId site, std::size_t& lowest) {
    while (!heap.empty()) {
      const ProcessId top = heap.front().id;
      heap_pop();
      if (!selected[static_cast<std::size_t>(top)] &&
          p->placement_allowed(top, site))
        return top;
    }
    const std::size_t n = selected.size();
    while (zero_cursor < n && selected[zero_cursor]) ++zero_cursor;
    lowest = std::max(lowest, zero_cursor);
    while (lowest < n &&
           (selected[lowest] ||
            !p->placement_allowed(static_cast<ProcessId>(lowest), site)))
      ++lowest;
    return lowest < n ? static_cast<ProcessId>(lowest) : -1;
  }

  /// Heap order: higher affinity first, then lower id (the naive scan's
  /// tie break).
  static bool above(const HeapEntry& a, const HeapEntry& b) {
    return a.affinity > b.affinity ||
           (a.affinity == b.affinity && a.id < b.id);
  }

  void heap_put(std::size_t i, const HeapEntry& e) {
    heap[i] = e;
    heap_pos[static_cast<std::size_t>(e.id)] = static_cast<int>(i);
  }

  void heap_raise(ProcessId q, Bytes a) {
    const int pos = heap_pos[static_cast<std::size_t>(q)];
    if (pos < 0) {
      heap.push_back(HeapEntry{a, q});
      sift_up(heap.size() - 1);
    } else {
      heap[static_cast<std::size_t>(pos)].affinity = a;
      sift_up(static_cast<std::size_t>(pos));
    }
  }

  void heap_pop() {
    heap_pos[static_cast<std::size_t>(heap.front().id)] = -1;
    const HeapEntry last = heap.back();
    heap.pop_back();
    if (heap.empty()) return;
    heap_put(0, last);
    sift_down(0);
  }

  void sift_up(std::size_t i) {
    const HeapEntry e = heap[i];
    while (i > 0 && above(e, heap[(i - 1) / 2])) {
      heap_put(i, heap[(i - 1) / 2]);
      i = (i - 1) / 2;
    }
    heap_put(i, e);
  }

  void sift_down(std::size_t i) {
    const HeapEntry e = heap[i];
    while (2 * i + 1 < heap.size()) {
      std::size_t child = 2 * i + 1;
      if (child + 1 < heap.size() && above(heap[child + 1], heap[child]))
        ++child;
      if (!above(heap[child], e)) break;
      heap_put(i, heap[child]);
      i = child;
    }
    heap_put(i, e);
  }

  /// The mapping with any stragglers placed: allowed-site sets can leave
  /// processes that no visited site could take, and the augmenting-path
  /// repair moves only unpinned processes, only where necessary.
  /// validate() guaranteed a feasible completion exists.
  Mapping completed() const {
    Mapping out = mapping;
    if (num_unselected > 0) {
      std::vector<int> slack = free;
      std::vector<char> movable(out.size(), 1);
      for (std::size_t i = 0; i < p->constraints.size(); ++i)
        if (p->constraints[i] != kUnconstrained) movable[i] = 0;
      GEOMAP_CHECK_MSG(
          mapping::complete_assignment(*p, out, slack, movable),
          "no feasible completion for the allowed-site constraints");
    }
    return out;
  }
};

}  // namespace

Mapping fill_for_order(const MappingProblem& problem, const Grouping& grouping,
                       const std::vector<GroupId>& group_order,
                       GeoDistOptions::FillEngine engine) {
  std::vector<char> seen(static_cast<std::size_t>(grouping.num_groups), 0);
  for (const GroupId g : group_order) {
    GEOMAP_CHECK_MSG(g >= 0 && g < grouping.num_groups &&
                         !seen[static_cast<std::size_t>(g)],
                     "group order names group " << g << " twice or out of "
                                                << "range");
    seen[static_cast<std::size_t>(g)] = 1;
  }
  const FillPlan plan(problem, grouping);
  FillState state(plan, engine);
  for (const GroupId g : group_order) state.fill_group(g);
  return state.completed();
}

namespace {

/// κ!/(κ−d)!: the number of depth-d prefixes of the order tree.
std::int64_t prefixes(int kappa, int depth) {
  std::int64_t count = 1;
  for (int i = 0; i < depth; ++i) count *= kappa - i;
  return count;
}

/// Split depth of the parallel search. Its tasks are the P_d = κ!/(κ−d)!
/// prefixes of depth d; each task fills its own prefix (d group fills)
/// and then its subtree (Σ_{l=1..κ−d} (κ−d)!/(κ−d−l)! group fills). Take
/// the depth whose tasks finish soonest on `workers` workers,
/// ⌈P_d / W⌉ × (fills per task), the shallowest on ties. One worker
/// gives depth 0, the plain walk; four give depth 1 at κ = 4 and depth 2
/// at κ = 6.
int split_depth(int kappa, std::size_t workers) {
  const auto w = static_cast<std::int64_t>(workers);
  int best = 0;
  std::int64_t best_span = -1;
  for (int d = 0; d <= kappa; ++d) {
    std::int64_t fills = d;
    for (int l = 1; l <= kappa - d; ++l) fills += prefixes(kappa - d, l);
    const std::int64_t span = (prefixes(kappa, d) + w - 1) / w * fills;
    if (best_span < 0 || span < best_span) {
      best = d;
      best_span = span;
    }
  }
  return best;
}

/// index-th permutation of {0..k-1} in lexicographic order (Lehmer code).
std::vector<GroupId> nth_permutation(int k, std::int64_t index) {
  std::vector<GroupId> pool(static_cast<std::size_t>(k));
  std::iota(pool.begin(), pool.end(), 0);
  std::vector<GroupId> out;
  out.reserve(static_cast<std::size_t>(k));
  std::int64_t f = prefixes(k - 1, k - 1);  // (k-1)!
  for (int i = k - 1; i >= 0; --i) {
    const auto pos = static_cast<std::size_t>(index / f);
    index %= f;
    out.push_back(pool[pos]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pos));
    if (i > 0) f /= i;
  }
  return out;
}

}  // namespace

namespace {

/// Group-level network view: a kappa x kappa model whose (g, h) entry
/// averages LT/BT over all ordered member-site pairs.
net::NetworkModel group_level_model(const net::NetworkModel& model,
                                    const Grouping& grouping) {
  const auto kappa = static_cast<std::size_t>(grouping.num_groups);
  Matrix lat = Matrix::square(kappa);
  Matrix bw = Matrix::square(kappa);
  for (std::size_t g = 0; g < kappa; ++g) {
    for (std::size_t h = 0; h < kappa; ++h) {
      double lat_sum = 0, bw_sum = 0;
      int count = 0;
      for (const SiteId s : grouping.members[g]) {
        for (const SiteId t : grouping.members[h]) {
          lat_sum += model.latency(s, t);
          bw_sum += model.bandwidth(s, t);
          ++count;
        }
      }
      lat(g, h) = lat_sum / count;
      bw(g, h) = bw_sum / count;
    }
  }
  return net::NetworkModel(std::move(lat), std::move(bw));
}

/// Hierarchical solve (paper: "recursively apply the proposed algorithm
/// inside each group"): processes -> groups on the group-averaged model,
/// then each group's processes -> its member sites, recursively.
Mapping map_hierarchical(const MappingProblem& problem,
                         const Grouping& grouping,
                         const GeoDistOptions& options) {
  const int n = problem.num_processes();

  // ---- Level 1: treat groups as large sites. ----
  MappingProblem group_problem;
  group_problem.comm = problem.comm;
  group_problem.network = group_level_model(problem.network, grouping);
  group_problem.capacities.assign(
      static_cast<std::size_t>(grouping.num_groups), 0);
  for (SiteId s = 0; s < problem.num_sites(); ++s) {
    group_problem.capacities[static_cast<std::size_t>(
        grouping.group_of_site[static_cast<std::size_t>(s)])] +=
        problem.capacities[static_cast<std::size_t>(s)];
  }
  if (!problem.constraints.empty()) {
    group_problem.constraints.assign(static_cast<std::size_t>(n),
                                     kUnconstrained);
    for (int i = 0; i < n; ++i) {
      const SiteId pin = problem.constraints[static_cast<std::size_t>(i)];
      if (pin != kUnconstrained)
        group_problem.constraints[static_cast<std::size_t>(i)] =
            grouping.group_of_site[static_cast<std::size_t>(pin)];
    }
  }
  if (!problem.allowed_sites.empty()) {
    group_problem.allowed_sites.assign(static_cast<std::size_t>(n), {});
    for (int i = 0; i < n; ++i) {
      const auto& list = problem.allowed_sites[static_cast<std::size_t>(i)];
      if (list.empty()) continue;
      std::vector<GroupId> groups;
      for (const SiteId s : list)
        groups.push_back(grouping.group_of_site[static_cast<std::size_t>(s)]);
      std::sort(groups.begin(), groups.end());
      groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
      group_problem.allowed_sites[static_cast<std::size_t>(i)] =
          std::move(groups);
    }
  }
  if (grouping.num_groups == static_cast<int>(grouping.centroids.size())) {
    group_problem.site_coords = grouping.centroids;
  }
  group_problem.validate();

  GeoDistOptions level_options = options;
  level_options.hierarchical = false;  // groups are few; flat search here
  GeoDistMapper level_mapper(level_options);
  const Mapping to_group = level_mapper.map(group_problem);

  // ---- Level 2: solve each group's internal mapping recursively. ----
  Mapping result(static_cast<std::size_t>(n), kUnmapped);
  for (GroupId g = 0; g < grouping.num_groups; ++g) {
    const std::vector<SiteId>& sites =
        grouping.members[static_cast<std::size_t>(g)];
    std::vector<ProcessId> procs;
    for (ProcessId i = 0; i < n; ++i)
      if (to_group[static_cast<std::size_t>(i)] == g) procs.push_back(i);
    if (procs.empty()) continue;

    if (sites.size() == 1) {
      for (const ProcessId i : procs)
        result[static_cast<std::size_t>(i)] = sites[0];
      continue;
    }

    // Local index spaces for processes and sites.
    std::vector<int> local_of_proc(static_cast<std::size_t>(n), -1);
    for (std::size_t li = 0; li < procs.size(); ++li)
      local_of_proc[static_cast<std::size_t>(procs[li])] =
          static_cast<int>(li);
    std::vector<int> local_of_site(
        static_cast<std::size_t>(problem.num_sites()), -1);
    for (std::size_t ls = 0; ls < sites.size(); ++ls)
      local_of_site[static_cast<std::size_t>(sites[ls])] =
          static_cast<int>(ls);

    MappingProblem sub;
    {
      trace::CommMatrix::Builder builder(static_cast<int>(procs.size()));
      for (const ProcessId i : procs) {
        const trace::CommMatrix::Row row = problem.comm.row(i);
        for (std::size_t k = 0; k < row.size(); ++k) {
          const int lj = local_of_proc[static_cast<std::size_t>(row.dst[k])];
          if (lj < 0) continue;  // external edge: fixed at group level
          builder.add_message(local_of_proc[static_cast<std::size_t>(i)], lj,
                              row.volume[k], row.count[k]);
        }
      }
      sub.comm = builder.build();
    }
    {
      Matrix lat = Matrix::square(sites.size());
      Matrix bw = Matrix::square(sites.size());
      for (std::size_t a = 0; a < sites.size(); ++a)
        for (std::size_t b = 0; b < sites.size(); ++b) {
          lat(a, b) = problem.network.latency(sites[a], sites[b]);
          bw(a, b) = problem.network.bandwidth(sites[a], sites[b]);
        }
      sub.network = net::NetworkModel(std::move(lat), std::move(bw));
    }
    for (const SiteId s : sites)
      sub.capacities.push_back(problem.capacities[static_cast<std::size_t>(s)]);
    if (!problem.site_coords.empty()) {
      for (const SiteId s : sites)
        sub.site_coords.push_back(
            problem.site_coords[static_cast<std::size_t>(s)]);
    }
    if (!problem.constraints.empty()) {
      sub.constraints.assign(procs.size(), kUnconstrained);
      for (std::size_t li = 0; li < procs.size(); ++li) {
        const SiteId pin =
            problem.constraints[static_cast<std::size_t>(procs[li])];
        if (pin != kUnconstrained)
          sub.constraints[li] = local_of_site[static_cast<std::size_t>(pin)];
      }
    }
    if (!problem.allowed_sites.empty()) {
      sub.allowed_sites.assign(procs.size(), {});
      for (std::size_t li = 0; li < procs.size(); ++li) {
        const auto& list =
            problem.allowed_sites[static_cast<std::size_t>(procs[li])];
        if (list.empty()) continue;
        std::vector<SiteId> local;
        for (const SiteId s : list) {
          const int ls = local_of_site[static_cast<std::size_t>(s)];
          if (ls >= 0) local.push_back(ls);
        }
        // Restricted processes always landed in a group holding at least
        // one allowed site, so `local` is never empty here.
        sub.allowed_sites[li] = std::move(local);
      }
    }
    sub.validate();

    GeoDistMapper sub_mapper(options);  // recursion: sub may regroup
    const Mapping local = sub_mapper.map(sub);
    for (std::size_t li = 0; li < procs.size(); ++li)
      result[static_cast<std::size_t>(procs[li])] =
          sites[static_cast<std::size_t>(local[li])];
  }
  return result;
}

}  // namespace

Mapping GeoDistMapper::map(const MappingProblem& problem) {
  problem.validate();
  const int m = problem.num_sites();
  obs::Collector* const col =
      options_.collector != nullptr ? options_.collector : collector_;

  obs::Phase map_phase;
  if (col != nullptr) {
    map_phase = col->profile().phase("mapper:" + name());
    col->mem().note("comm.csr", problem.comm.memory_bytes());
    // LT + BT dense site matrices (the structures the scale arc must
    // shrink; at N=10^6-class problems the comm CSR dominates instead).
    col->mem().note("network.dense", 2 * static_cast<std::size_t>(m) *
                                         static_cast<std::size_t>(m) *
                                         sizeof(double));
  }

  if (options_.use_grouping && options_.kappa < m) {
    obs::Phase grouping_phase;
    if (col != nullptr) grouping_phase = col->profile().phase("grouping");
    const bool have_coords = static_cast<int>(problem.site_coords.size()) == m;
    bool by_coords = false;
    switch (options_.grouping_source) {
      case GeoDistOptions::GroupingSource::kCoordinates:
        GEOMAP_CHECK_MSG(have_coords,
                         "grouping by coordinates needs problem.site_coords");
        by_coords = true;
        break;
      case GeoDistOptions::GroupingSource::kLatency:
        by_coords = false;
        break;
      case GeoDistOptions::GroupingSource::kAuto:
        by_coords = have_coords;
        break;
    }
    last_grouping_ =
        by_coords ? group_sites(problem.site_coords, options_.kappa,
                                options_.kmeans)
                  : group_sites_by_latency(problem.network, options_.kappa,
                                           options_.kmeans);
    grouping_phase.count("kmeans_iterations",
                         static_cast<std::uint64_t>(
                             std::max(0, last_grouping_.iterations)));
  } else {
    last_grouping_ = singleton_groups(m);
  }
  const int kappa = last_grouping_.num_groups;

  // Hierarchical recursion needs a genuine partition (>= 2 groups, each
  // smaller than the whole) or it would recurse on itself.
  if (options_.hierarchical && kappa > 1 && kappa < m) {
    last_orders_ = 0;  // orders are evaluated per level, not tracked here
    obs::Phase hier_phase;
    if (col != nullptr) hier_phase = col->profile().phase("hierarchical");
    const Mapping result =
        map_hierarchical(problem, last_grouping_, options_);
    mapping::validate_mapping(problem, result);
    return result;
  }

  // The product stops once it passes max_orders, so a large kappa cannot
  // overflow it.
  std::int64_t num_orders = 1;
  for (int i = 2; options_.search_orders && i <= kappa &&
                  num_orders <= options_.max_orders;
       ++i)
    num_orders *= i;
  GEOMAP_CHECK_MSG(num_orders <= options_.max_orders,
                   "order search over " << kappa
                                        << "! permutations exceeds max_orders="
                                        << options_.max_orders
                                        << "; enable grouping or raise kappa");
  last_orders_ = static_cast<int>(num_orders);

  obs::Span search_span;
  if (col != nullptr) search_span = col->tracer().span("mapper/order-search",
                                                       "mapper");
  obs::Phase search_phase;
  if (col != nullptr) {
    search_phase = col->profile().phase("order-search");
    search_phase.count("orders_enumerated",
                       static_cast<std::uint64_t>(num_orders));
  }

  const mapping::CostEvaluator eval(problem);
  std::vector<Seconds> costs(static_cast<std::size_t>(num_orders));
  // The per-order decision breakdown is a forensic recorder: priced only
  // when the audit artifact was asked for (Collector::audit_enabled).
  const bool audit = col != nullptr && col->audit_enabled();
  // Parallel order evaluations write disjoint slots; no lock needed.
  std::vector<obs::OrderDecision> decisions(
      audit ? static_cast<std::size_t>(num_orders) : 0);

  // Coarse progress heartbeat for long order searches: at most ~32
  // stride-sampled updates, each a monotone gauge write (set_max keeps
  // the final exported value deterministic under parallel evaluation)
  // plus a timeline point for the obsctl progress lane. An evaluation
  // counts itself and stamps its point under one lock, so the stamps
  // rise with the count and the lane ends at 1.0 whichever worker
  // finishes last.
  std::mutex progress_mutex;
  std::int64_t orders_done = 0;
  const std::int64_t heartbeat_stride =
      num_orders > 32 ? num_orders / 32 : 1;

  // Evaluates leaf `idx` of the order tree in place; returns its cost.
  auto evaluate = [&](std::size_t idx, const std::vector<GroupId>& order,
                      const Mapping& mapped) -> Seconds {
    if (col == nullptr) return costs[idx] = eval.total_cost(mapped);
    if (audit) {
      // Audited path: breakdown() folds the identical edge sequence, so
      // costs (and therefore the winning order) match the plain path
      // bit-for-bit.
      const mapping::CostBreakdown b = eval.breakdown(mapped);
      costs[idx] = b.total;
      obs::OrderDecision& d = decisions[idx];
      d.order.assign(order.begin(), order.end());
      d.cost_seconds = b.total;
      for (SiteId src = 0; src < b.num_sites; ++src) {
        for (SiteId dst = 0; dst < b.num_sites; ++dst) {
          const std::size_t cell = static_cast<std::size_t>(src) *
                                       static_cast<std::size_t>(b.num_sites) +
                                   static_cast<std::size_t>(dst);
          if (b.messages[cell] == 0.0 && b.bytes[cell] == 0.0) continue;
          d.pairs.push_back(obs::PairTerm{src, dst, b.alpha[cell],
                                          b.beta[cell], b.messages[cell],
                                          b.bytes[cell]});
        }
      }
    } else {
      costs[idx] = eval.total_cost(mapped);
    }
    std::lock_guard<std::mutex> lock(progress_mutex);
    const std::int64_t done = ++orders_done;
    if (done % heartbeat_stride == 0 || done == num_orders) {
      const double frac =
          static_cast<double>(done) / static_cast<double>(num_orders);
      col->metrics().gauge("mapper.progress").set_max(frac);
      col->timeline()
          .series("mapper.progress", "orders")
          .record(col->profile().now_seconds(), frac);
    }
    return costs[idx];
  };

  // Depth-first search of the order tree in lexicographic order, so leaf
  // i is nth_permutation(kappa, i). Orders sharing a prefix share its
  // fill: each prefix is filled once and undone before its next sibling.
  // Tasks are the prefixes at the split depth; a task fills its own
  // prefix, walks its subtree and keeps the mapping of its first
  // cheapest leaf. Without the search, the one task is the identity
  // order.
  const FillPlan plan(problem, last_grouping_);
  const int split =
      options_.search_orders
          ? split_depth(kappa,
                        options_.parallel_orders ? parallel_workers() : 1)
          : kappa;
  const std::int64_t num_tasks =
      options_.search_orders ? prefixes(kappa, split) : 1;
  const std::int64_t leaves_per_task = num_orders / num_tasks;
  struct TaskWinner {
    std::int64_t leaf = -1;
    Seconds cost = 0;
    Mapping mapping;
  };
  std::vector<TaskWinner> winners(static_cast<std::size_t>(num_tasks));

  auto run_task = [&](std::size_t task) {
    const auto first_leaf = static_cast<std::int64_t>(task) * leaves_per_task;
    // The kept mapping outlives the task; reserved before the fill state,
    // it sits below the state's buffers instead of among them.
    TaskWinner& win = winners[task];
    win.mapping.reserve(plan.partial.size());
    FillState state(plan, options_.fill);
    std::vector<GroupId> order = nth_permutation(kappa, first_leaf);
    std::vector<char> used(static_cast<std::size_t>(kappa), 0);
    // group_fills counts each prefix of the tree once: a prefix above the
    // split depth is counted by the first task below it.
    std::uint64_t group_fills = 0;
    for (int depth = 0; depth < split; ++depth) {
      const GroupId g = order[static_cast<std::size_t>(depth)];
      used[static_cast<std::size_t>(g)] = 1;
      state.fill_group(g);
      if (static_cast<std::int64_t>(task) %
              prefixes(kappa - depth - 1, split - depth - 1) ==
          0)
        ++group_fills;
    }
    std::int64_t leaf = first_leaf;
    auto descend = [&](auto& self, int depth) -> void {
      if (depth == kappa) {
        const std::int64_t idx = leaf++;
        Mapping repaired;
        if (state.num_unselected > 0) repaired = state.completed();
        const Mapping& mapped =
            state.num_unselected > 0 ? repaired : state.mapping;
        const Seconds cost =
            evaluate(static_cast<std::size_t>(idx), order, mapped);
        if (win.leaf < 0 || cost < win.cost) {
          win.leaf = idx;
          win.cost = cost;
          win.mapping = mapped;
        }
        return;
      }
      for (GroupId g = 0; g < kappa; ++g) {
        if (used[static_cast<std::size_t>(g)]) continue;
        const FillState::Mark mark = state.mark();
        used[static_cast<std::size_t>(g)] = 1;
        order[static_cast<std::size_t>(depth)] = g;
        state.fill_group(g);
        ++group_fills;
        self(self, depth + 1);
        state.undo(mark);
        used[static_cast<std::size_t>(g)] = 0;
      }
    };
    descend(descend, split);
    search_phase.count("cost_evals",
                       static_cast<std::uint64_t>(leaf - first_leaf));
    search_phase.count("group_fills", group_fills);
  };

  if (options_.parallel_orders && num_tasks > 1) {
    parallel_for(0, static_cast<std::size_t>(num_tasks), run_task);
  } else {
    for (std::size_t t = 0; t < static_cast<std::size_t>(num_tasks); ++t)
      run_task(t);
  }

  // Winner: minimal cost, ties to the lexicographically first order.
  std::size_t best = 0;
  for (std::size_t i = 1; i < costs.size(); ++i)
    if (costs[i] < costs[best]) best = i;
  search_phase.end();

  if (col != nullptr) {
    col->metrics().counter("mapper.map_calls").add();
    col->metrics()
        .counter("mapper.orders_evaluated")
        .add(static_cast<std::uint64_t>(num_orders));
    obs::Histogram& order_costs =
        col->metrics().histogram("mapper.order_cost_seconds");
    for (const Seconds c : costs) order_costs.record(c);
    if (options_.use_grouping && options_.kappa < m) {
      col->metrics()
          .histogram("mapper.kmeans_iterations")
          .record(last_grouping_.iterations);
    }

    if (audit) {
      obs::MapCallRecord record;
      record.mapper = name();
      record.num_processes = problem.num_processes();
      record.num_sites = m;
      record.num_groups = kappa;
      record.kmeans_iterations = last_grouping_.iterations;
      record.orders_enumerated = num_orders;
      decisions[best].winner = true;
      record.orders = std::move(decisions);
      col->audit().add(std::move(record));
    }
  }

  // The winner's task kept its mapping. Only a NaN cost can make a
  // task's first cheapest leaf differ from this scan's (NaN compares
  // false either way); then fill the winner again. The result is a fresh
  // copy: allocated after the search, it does not pin a buffer from the
  // middle of the memory the search churned through for as long as the
  // caller keeps it (map_many_sites' peak RSS read 3.7 MiB higher in
  // about a third of its runs when the task's buffer was returned).
  TaskWinner& win =
      winners[static_cast<std::size_t>(static_cast<std::int64_t>(best) /
                                        leaves_per_task)];
  if (win.leaf != static_cast<std::int64_t>(best))
    return fill_for_order(
        problem, last_grouping_,
        nth_permutation(kappa, static_cast<std::int64_t>(best)), options_.fill);
  return win.mapping;
}

}  // namespace geomap::core

#include "core/geodist_mapper.h"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <queue>

#include "common/error.h"
#include "common/parallel.h"
#include "mapping/allowed_sites.h"
#include "mapping/cost.h"
#include "obs/collector.h"

namespace geomap::core {

namespace {

using mapping::MappingProblem;

/// Shared fill scaffolding: the partial mapping after constraint
/// pre-assignment, per-site free capacity, selection flags, and the
/// heaviest-traffic process ordering used for site seeds.
struct FillContext {
  const MappingProblem* p = nullptr;
  Mapping mapping;
  std::vector<int> free;
  std::vector<char> selected;
  int num_unselected = 0;
  /// Process ids sorted by descending total traffic, tie low id first
  /// (Algorithm 1 line 9 seed picks scan this with a cursor).
  std::vector<ProcessId> by_traffic;
  std::size_t traffic_cursor = 0;

  explicit FillContext(const MappingProblem& problem) : p(&problem) {
    auto [partial, free_caps] = mapping::apply_constraints(problem);
    mapping = std::move(partial);
    free = std::move(free_caps);
    const int n = problem.num_processes();
    selected.assign(static_cast<std::size_t>(n), 0);
    for (ProcessId i = 0; i < n; ++i) {
      if (mapping[static_cast<std::size_t>(i)] != kUnmapped)
        selected[static_cast<std::size_t>(i)] = 1;
      else
        ++num_unselected;
    }
    by_traffic.resize(static_cast<std::size_t>(n));
    std::iota(by_traffic.begin(), by_traffic.end(), 0);
    std::stable_sort(by_traffic.begin(), by_traffic.end(),
                     [&](ProcessId a, ProcessId b) {
                       return problem.comm.process_traffic(a) >
                              problem.comm.process_traffic(b);
                     });
  }

  /// Globally heaviest unselected process placeable on `site`
  /// (Algorithm 1 line 9; -1 when none qualifies). The cursor only
  /// advances past *selected* processes — an alive process skipped for
  /// being disallowed on this site must stay reachable for later sites.
  ProcessId heaviest_unselected_for(SiteId site) {
    while (traffic_cursor < by_traffic.size() &&
           selected[static_cast<std::size_t>(by_traffic[traffic_cursor])])
      ++traffic_cursor;
    for (std::size_t c = traffic_cursor; c < by_traffic.size(); ++c) {
      const ProcessId t = by_traffic[c];
      if (!selected[static_cast<std::size_t>(t)] &&
          p->placement_allowed(t, site))
        return t;
    }
    return -1;
  }

  void select(ProcessId t, SiteId site) {
    mapping[static_cast<std::size_t>(t)] = site;
    selected[static_cast<std::size_t>(t)] = 1;
    --free[static_cast<std::size_t>(site)];
    --num_unselected;
  }
};

/// Affinity scratch shared by both engines: affinity[q] accumulates the
/// undirected communication volume between q and the processes already
/// selected into the site currently being filled. A touched-list keeps
/// per-site reset at O(|touched|).
struct AffinityScratch {
  std::vector<Bytes> affinity;
  std::vector<ProcessId> touched;

  explicit AffinityScratch(int n)
      : affinity(static_cast<std::size_t>(n), 0.0) {}

  void bump(ProcessId q, Bytes w) {
    if (affinity[static_cast<std::size_t>(q)] == 0.0) touched.push_back(q);
    affinity[static_cast<std::size_t>(q)] += w;
  }

  void clear() {
    for (const ProcessId q : touched)
      affinity[static_cast<std::size_t>(q)] = 0.0;
    touched.clear();
  }
};

/// Add t's undirected edges into the affinity of its unselected
/// neighbours (called when t joins the current site). The optional heap
/// receives refreshed entries (lazy-deletion scheme).
template <typename PushFn>
void add_member_affinity(const MappingProblem& p, ProcessId t,
                         const std::vector<char>& selected,
                         AffinityScratch& scratch, PushFn&& push) {
  const trace::CommMatrix::Row r = p.comm.undirected_row(t);
  for (std::size_t k = 0; k < r.size(); ++k) {
    const ProcessId q = r.dst[k];
    if (selected[static_cast<std::size_t>(q)]) continue;
    scratch.bump(q, r.volume[k]);
    push(q, scratch.affinity[static_cast<std::size_t>(q)]);
  }
}

/// The paper's fill loop for one site, O(N) per pick: scan all unselected
/// processes for the affinity argmax (tie: lowest id).
void fill_site_naive(FillContext& ctx, SiteId site,
                     AffinityScratch& scratch) {
  const MappingProblem& p = *ctx.p;
  const int n = p.num_processes();
  auto no_heap = [](ProcessId, Bytes) {};

  // Pinned processes already resident in this site attract their
  // neighbours from the first pick.
  for (ProcessId q = 0; q < n; ++q) {
    if (ctx.selected[static_cast<std::size_t>(q)] &&
        ctx.mapping[static_cast<std::size_t>(q)] == site) {
      add_member_affinity(p, q, ctx.selected, scratch, no_heap);
    }
  }

  bool first = true;
  while (ctx.free[static_cast<std::size_t>(site)] > 0 &&
         ctx.num_unselected > 0) {
    ProcessId pick = -1;
    if (first) {
      pick = ctx.heaviest_unselected_for(site);
      first = false;
    } else {
      Bytes best = -1.0;
      for (ProcessId q = 0; q < n; ++q) {
        if (ctx.selected[static_cast<std::size_t>(q)]) continue;
        if (!p.placement_allowed(q, site)) continue;
        const Bytes a = scratch.affinity[static_cast<std::size_t>(q)];
        if (a > best) {
          best = a;
          pick = q;
        }
      }
    }
    if (pick < 0) break;  // nothing placeable here (allowed-site sets)
    ctx.select(pick, site);
    add_member_affinity(p, pick, ctx.selected, scratch, no_heap);
  }
  scratch.clear();
}

/// Heap-accelerated fill: identical picks, O(log N) amortized per pick.
void fill_site_heap(FillContext& ctx, SiteId site, AffinityScratch& scratch) {
  const MappingProblem& p = *ctx.p;
  const int n = p.num_processes();

  struct Entry {
    Bytes affinity;
    ProcessId id;
    // Max-heap: higher affinity first, then lower id (matches the naive
    // scan's lowest-id tie break).
    bool operator<(const Entry& other) const {
      if (affinity != other.affinity) return affinity < other.affinity;
      return id > other.id;
    }
  };
  std::priority_queue<Entry> heap;
  auto push = [&heap](ProcessId q, Bytes a) { heap.push(Entry{a, q}); };

  for (ProcessId q = 0; q < n; ++q) {
    if (ctx.selected[static_cast<std::size_t>(q)] &&
        ctx.mapping[static_cast<std::size_t>(q)] == site) {
      add_member_affinity(p, q, ctx.selected, scratch, push);
    }
  }
  // Seed the heap with every unselected process so zero-affinity picks
  // (disconnected processes) surface in lowest-id order too.
  for (ProcessId q = 0; q < n; ++q) {
    if (!ctx.selected[static_cast<std::size_t>(q)])
      heap.push(Entry{scratch.affinity[static_cast<std::size_t>(q)], q});
  }

  bool first = true;
  while (ctx.free[static_cast<std::size_t>(site)] > 0 &&
         ctx.num_unselected > 0) {
    ProcessId pick = -1;
    if (first) {
      pick = ctx.heaviest_unselected_for(site);
      first = false;
    } else {
      // Pop until a live entry: unselected, affinity still current, and
      // placeable on this site (disallowed entries are simply consumed —
      // they can never be picked for this site anyway).
      while (!heap.empty()) {
        const Entry e = heap.top();
        heap.pop();
        if (ctx.selected[static_cast<std::size_t>(e.id)]) continue;
        if (e.affinity !=
            scratch.affinity[static_cast<std::size_t>(e.id)])
          continue;  // stale: a fresher entry exists
        if (!p.placement_allowed(e.id, site)) continue;
        pick = e.id;
        break;
      }
    }
    if (pick < 0) break;  // nothing placeable here (allowed-site sets)
    ctx.select(pick, site);
    add_member_affinity(p, pick, ctx.selected, scratch, push);
  }
  scratch.clear();
}

}  // namespace

Mapping fill_for_order(const MappingProblem& problem, const Grouping& grouping,
                       const std::vector<GroupId>& group_order,
                       GeoDistOptions::FillEngine engine) {
  FillContext ctx(problem);
  AffinityScratch scratch(problem.num_processes());

  for (const GroupId g : group_order) {
    // Algorithm 1 line 10: within the group, sites largest-available-
    // capacity first (ties: lower site id).
    std::vector<SiteId> sites = grouping.members[static_cast<std::size_t>(g)];
    std::stable_sort(sites.begin(), sites.end(), [&](SiteId a, SiteId b) {
      return ctx.free[static_cast<std::size_t>(a)] >
             ctx.free[static_cast<std::size_t>(b)];
    });
    for (const SiteId site : sites) {
      if (ctx.free[static_cast<std::size_t>(site)] == 0) continue;  // line 6
      if (ctx.num_unselected == 0) break;
      if (engine == GeoDistOptions::FillEngine::kNaive)
        fill_site_naive(ctx, site, scratch);
      else
        fill_site_heap(ctx, site, scratch);
    }
  }
  if (ctx.num_unselected > 0) {
    // Allowed-site sets can leave stragglers no visited site could take;
    // finish with the augmenting-path repair (moves only unpinned
    // processes, and only where necessary). validate() guaranteed a
    // feasible completion exists.
    std::vector<char> movable(ctx.mapping.size(), 1);
    for (std::size_t i = 0; i < problem.constraints.size(); ++i)
      if (problem.constraints[i] != kUnconstrained) movable[i] = 0;
    GEOMAP_CHECK_MSG(
        mapping::complete_assignment(problem, ctx.mapping, ctx.free, movable),
        "no feasible completion for the allowed-site constraints");
  }
  return std::move(ctx.mapping);
}

namespace {

std::int64_t factorial(int k) {
  std::int64_t f = 1;
  for (int i = 2; i <= k; ++i) f *= i;
  return f;
}

/// index-th permutation of {0..k-1} in lexicographic order (Lehmer code).
std::vector<GroupId> nth_permutation(int k, std::int64_t index) {
  std::vector<GroupId> pool(static_cast<std::size_t>(k));
  std::iota(pool.begin(), pool.end(), 0);
  std::vector<GroupId> out;
  out.reserve(static_cast<std::size_t>(k));
  std::int64_t f = factorial(k - 1);
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

  const std::int64_t num_orders =
      options_.search_orders ? factorial(kappa) : 1;
  GEOMAP_CHECK_MSG(num_orders <= options_.max_orders,
                   "order search over " << kappa << "! = " << num_orders
                                        << " permutations exceeds max_orders="
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

  auto evaluate = [&](std::size_t idx) {
    const std::vector<GroupId> order =
        nth_permutation(kappa, static_cast<std::int64_t>(idx));
    const Mapping mapped =
        fill_for_order(problem, last_grouping_, order, options_.fill);
    if (col == nullptr) {
      costs[idx] = eval.total_cost(mapped);
      return;
    }
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
    search_phase.count("cost_evals");
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
  };

  if (options_.parallel_orders && num_orders > 1) {
    parallel_for(0, static_cast<std::size_t>(num_orders), evaluate);
  } else {
    for (std::size_t i = 0; i < static_cast<std::size_t>(num_orders); ++i)
      evaluate(i);
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

  obs::Phase fill_phase;
  if (col != nullptr) fill_phase = col->profile().phase("fill-winner");
  return fill_for_order(problem, last_grouping_,
                        nth_permutation(kappa, static_cast<std::int64_t>(best)),
                        options_.fill);
}

}  // namespace geomap::core

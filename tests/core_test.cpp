// Tests for the paper's algorithm: k-means grouping, the Algorithm 1
// heap fill and order search against the paper's loop in
// geodist_fill_oracle.h, Monte Carlo sampling and the end-to-end
// pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <string>

#include "apps/app.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/geodist_mapper.h"
#include "core/grouping.h"
#include "core/montecarlo.h"
#include "core/pipeline.h"
#include "geodist_fill_oracle.h"
#include "mapping/cost.h"
#include "mapping/random_mapper.h"
#include "obs/collector.h"
#include "test_util.h"

namespace geomap::core {
namespace {

using testutil::oracle_fill_for_order;
using testutil::plain_enumeration;
using testutil::random_problem;

/// The heap fill, as map() runs it.
Mapping heap_fill(const mapping::MappingProblem& p, const Grouping& g,
                  const std::vector<GroupId>& order) {
  return fill_for_order(p, g, order, GeoDistOptions::FillEngine::kHeap);
}

TEST(Grouping, SingletonWhenKappaCoversAllSites) {
  const std::vector<net::GeoCoordinate> coords = {
      {0, 0}, {10, 10}, {20, 20}};
  const Grouping g = group_sites(coords, 5);
  EXPECT_EQ(g.num_groups, 3);
  for (int s = 0; s < 3; ++s)
    EXPECT_EQ(g.members[static_cast<std::size_t>(g.group_of_site[static_cast<std::size_t>(s)])][0], s);
}

TEST(Grouping, MembersPartitionTheSites) {
  const net::CloudTopology topo(net::aws2016_profile());
  const Grouping g = group_sites(topo.coordinates(), 4);
  EXPECT_LE(g.num_groups, 4);
  std::set<SiteId> seen;
  for (const auto& members : g.members) {
    EXPECT_FALSE(members.empty());
    for (const SiteId s : members) {
      EXPECT_TRUE(seen.insert(s).second) << "site in two groups";
      EXPECT_EQ(g.group_of_site[static_cast<std::size_t>(s)],
                g.group_of_site[static_cast<std::size_t>(members[0])]);
    }
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(topo.num_sites()));
}

TEST(Grouping, ClustersGeographicNeighbours) {
  // Two US coasts, Europe, Asia: with kappa=2 the two US regions must
  // land in the same group (they are far closer to each other than to
  // Singapore or Ireland).
  const net::CloudTopology topo(net::aws_experiment_profile());
  const auto coords = topo.coordinates();
  const Grouping g = group_sites(coords, 2);
  ASSERT_EQ(g.num_groups, 2);
  EXPECT_EQ(g.group_of_site[0], g.group_of_site[1]);  // us-east, us-west
}

TEST(Grouping, DeterministicInSeed) {
  const net::CloudTopology topo(net::aws2016_profile());
  const Grouping a = group_sites(topo.coordinates(), 4);
  const Grouping b = group_sites(topo.coordinates(), 4);
  EXPECT_EQ(a.group_of_site, b.group_of_site);
}

TEST(Grouping, RejectsBadInput) {
  EXPECT_THROW(group_sites({}, 2), Error);
  EXPECT_THROW(group_sites({{0, 0}}, 0), Error);
}

/// `p` with about 30 % of its messages carrying zero bytes: a zero-volume
/// edge leaves an affinity at 0, and a process reached only through such
/// edges must still lose ties to lower ids.
mapping::MappingProblem with_zero_byte_messages(mapping::MappingProblem p,
                                                std::uint64_t seed) {
  Rng rng(seed);
  trace::CommMatrix::Builder b(p.num_processes());
  for (const trace::CommEdge& e : p.comm.edges())
    b.add_message(e.src, e.dst, rng.uniform() < 0.3 ? 0.0 : e.volume,
                  e.count);
  p.comm = b.build();
  p.validate();
  return p;
}

/// K-means at the benchmark's N = 4096 on the 4-region AWS cloud, one
/// group per region (kappa = 4), with 20 % of the processes pinned.
mapping::MappingProblem kmeans_at_scale(std::uint64_t seed) {
  const int n = 4096;
  const net::CloudTopology topo(net::aws_experiment_profile(n / 4));
  const apps::App& app = apps::app_by_name("K-means");
  mapping::MappingProblem p;
  p.comm = app.synthetic_pattern(n, app.default_config(n));
  p.network = net::NetworkModel::from_ground_truth(topo);
  p.capacities = topo.capacities();
  p.site_coords = topo.coordinates();
  Rng rng(seed);
  p.constraints = mapping::make_random_constraints(n, p.capacities, 0.2, rng);
  p.validate();
  return p;
}

// The central implementation property: the heap fill reproduces the
// paper's O(N^2) loop pick for pick.
class FillEngineEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(FillEngineEquivalence, HeapMatchesNaiveExactly) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const mapping::MappingProblem problems[] = {
      random_problem(24, 0.0, seed, 5), random_problem(24, 0.3, seed, 5),
      with_zero_byte_messages(random_problem(24, 0.3, seed, 5), seed)};
  for (const mapping::MappingProblem& p : problems) {
    const Grouping g = group_sites(p.site_coords, 2);
    // Try every order of the groups.
    std::vector<GroupId> order(static_cast<std::size_t>(g.num_groups));
    for (int i = 0; i < g.num_groups; ++i) order[static_cast<std::size_t>(i)] = i;
    do {
      EXPECT_EQ(heap_fill(p, g, order), oracle_fill_for_order(p, g, order));
    } while (std::next_permutation(order.begin(), order.end()));
  }
  // At the benchmark's size, one of the 24 orders: the seed-th in
  // lexicographic order, so the eight seeds cover eight orders.
  const mapping::MappingProblem p = kmeans_at_scale(seed);
  const Grouping g = group_sites(p.site_coords, 4);
  ASSERT_EQ(g.num_groups, 4);
  std::vector<GroupId> order = {0, 1, 2, 3};
  for (std::uint64_t k = 0; k < seed; ++k)
    std::next_permutation(order.begin(), order.end());
  EXPECT_EQ(heap_fill(p, g, order), oracle_fill_for_order(p, g, order));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FillEngineEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(FillEngines, AgreeUnderAllowedSiteSets) {
  for (const std::uint64_t seed : {4ULL, 9ULL, 14ULL}) {
    mapping::MappingProblem p = random_problem(20, 0.0, seed, 4);
    Rng rng(seed * 31);
    p.allowed_sites.assign(20, {});
    for (ProcessId i = 0; i < 20; ++i) {
      if (rng.uniform() < 0.5) continue;
      std::vector<SiteId> list;
      for (SiteId s = 0; s < 4; ++s)
        if (rng.uniform() < 0.6) list.push_back(s);
      if (list.empty()) list.push_back(static_cast<SiteId>(rng.uniform_index(4)));
      p.allowed_sites[static_cast<std::size_t>(i)] = std::move(list);
    }
    p.validate();
    const Grouping g = group_sites(p.site_coords, 2);
    std::vector<GroupId> order(static_cast<std::size_t>(g.num_groups));
    std::iota(order.begin(), order.end(), 0);
    do {
      const Mapping oracle = oracle_fill_for_order(p, g, order);
      EXPECT_EQ(heap_fill(p, g, order), oracle) << "seed " << seed;
      EXPECT_NO_THROW(mapping::validate_mapping(p, oracle));
    } while (std::next_permutation(order.begin(), order.end()));
  }
}

/// Every pair of distinct sites 50 ms and 100 MB/s apart; within a site
/// 0 s and 10 GB/s.
net::NetworkModel uniform_network(std::size_t sites) {
  Matrix lat = Matrix::square(sites);
  Matrix bw = Matrix::square(sites);
  for (std::size_t a = 0; a < sites; ++a)
    for (std::size_t b = 0; b < sites; ++b) {
      lat(a, b) = a == b ? 0.0 : 0.05;
      bw(a, b) = a == b ? 1e10 : 1e8;
    }
  return net::NetworkModel(std::move(lat), std::move(bw));
}

// The heap fill reads a site's pinned residents from the fill plan; they
// must add their affinities in id order, as the oracle's scan does, because
// the rounding of a sum depends on the order of its terms. Process 3
// borders residents 0, 1, 2 with 2^63, 2^10, 2^10 bytes: in id order the
// small terms round away and 3 loses to process 4's 2^63 + 2^11; in any
// other order they add up to 2^11 and 3 wins the tie on its lower id.
TEST(FillEngines, PinnedResidentsAddAffinityInIdOrder) {
  trace::CommMatrix::Builder builder(7);
  builder.add_message(3, 0, std::ldexp(1.0, 63), 1);
  builder.add_message(3, 1, std::ldexp(1.0, 10), 1);
  builder.add_message(3, 2, std::ldexp(1.0, 10), 1);
  builder.add_message(4, 0, std::ldexp(1.0, 63) + std::ldexp(1.0, 11), 1);
  builder.add_message(5, 6, std::ldexp(1.0, 65), 1);  // site 0's seed pick
  mapping::MappingProblem p;
  p.comm = builder.build();
  p.network = uniform_network(2);
  p.capacities = {5, 4};
  p.constraints = {0, 0, 0, kUnconstrained, kUnconstrained, kUnconstrained, 1};
  p.validate();
  const Grouping g = singleton_groups(2);
  const Mapping oracle = oracle_fill_for_order(p, g, {0, 1});
  EXPECT_EQ(oracle, (Mapping{0, 0, 0, 1, 0, 0, 1}));
  EXPECT_EQ(heap_fill(p, g, {0, 1}), oracle);
}

/// A problem over a synthetic world of `sites` sites for the search's
/// differential test. Volumes are 1, 2 or 4 KiB or 2^63 or 2^64 bytes:
/// affinities often tie, so the lower id must win, and the rounding of a
/// sum depends on the order of its terms, so a site's residents must add
/// their affinities in id order. About 30 % of the messages carry zero
/// bytes. Pins, slack and allowed-site sets are optional (each set holds
/// the site a random feasible mapping gave the process, so the
/// constraints stay feasible). With `uniform` every pair of distinct
/// sites has the same latency and bandwidth, so orders that place the
/// same groups of processes on different sites tie in cost, and the
/// first cheapest order must win.
mapping::MappingProblem search_problem(int sites, int n, double pin_ratio,
                                       int slack, bool allowed, bool uniform,
                                       std::uint64_t seed) {
  Rng rng(seed);
  const net::CloudTopology topo(
      net::synthetic_profile(sites, (n + sites - 1) / sites + slack, seed));
  mapping::MappingProblem p;
  const int exponents[] = {10, 11, 12, 63, 64};
  trace::CommMatrix::Builder builder(n);
  for (ProcessId i = 0; i < n; ++i)
    for (int d = 0; d < 4; ++d)
      builder.add_message(i, static_cast<ProcessId>(rng.uniform_index(n)),
                          std::ldexp(1.0, exponents[rng.uniform_index(5)]),
                          static_cast<double>(1 + rng.uniform_index(8)));
  p.comm = builder.build();
  p.network = uniform
                  ? uniform_network(static_cast<std::size_t>(sites))
                  : net::NetworkModel::from_ground_truth(topo);
  p.capacities = topo.capacities();
  p.site_coords = topo.coordinates();
  if (pin_ratio > 0)
    p.constraints =
        mapping::make_random_constraints(n, p.capacities, pin_ratio, rng);
  if (allowed) {
    const Mapping feasible = mapping::RandomMapper::draw(p, rng);
    p.allowed_sites.assign(static_cast<std::size_t>(n), {});
    for (std::size_t i = 0; i < feasible.size(); ++i) {
      if (!p.constraints.empty() && p.constraints[i] != kUnconstrained)
        continue;
      if (rng.uniform() < 0.5) continue;
      std::vector<SiteId>& list = p.allowed_sites[i];
      for (SiteId s = 0; s < sites; ++s)
        if (s == feasible[i] || rng.uniform() < 0.3) list.push_back(s);
    }
  }
  return with_zero_byte_messages(std::move(p), seed + 1);
}

struct RestoreWorkers {
  ~RestoreWorkers() { set_parallel_workers(0); }
};

/// map() on `p` under 1-4 workers, with the order search on and off and in
/// hierarchical mode. The flat results must equal plain enumeration's. The
/// hierarchical mode, whose levels run the same search, must agree across
/// workers; with allowed-site sets it can throw on a feasible problem (a
/// level-2 sub-problem can be infeasible), and then it must throw alike
/// everywhere.
void expect_search_matches_enumeration(const mapping::MappingProblem& p,
                                       int kappa) {
  for (const int variant : {0, 1, 2}) {
    GeoDistOptions options;
    options.kappa = kappa;
    options.search_orders = variant != 1;
    options.hierarchical = variant == 2;
    Mapping expected;
    std::string expected_error;
    for (std::size_t workers = 1; workers <= 4; ++workers) {
      set_parallel_workers(workers);
      GeoDistMapper mapper(options);
      Mapping got;
      std::string error;
      try {
        got = mapper.map(p);
      } catch (const Error& e) {
        error = e.what();
      }
      if (workers == 1) {
        ASSERT_TRUE(variant == 2 || error.empty()) << error;
        expected_error = error;
        expected = variant == 2 ? got
                                : plain_enumeration(p, mapper.last_grouping(),
                                                    options.search_orders);
      }
      ASSERT_EQ(error, expected_error);
      ASSERT_EQ(got, expected) << "kappa " << kappa << " variant " << variant
                               << " workers " << workers;
    }
  }
}

// The depth-first order search, whatever its split, returns what plain
// enumeration of every order returns.
TEST(GeoDist, SearchMatchesPlainEnumeration) {
  const RestoreWorkers restore_workers;
  std::uint64_t seed = 100;
  for (const int sites : {5, 8, 12})
    for (int kappa = 2; kappa <= 5; ++kappa)
      for (const int n : {24, 90})
        for (const double pins : {0.0, 0.25})
          for (const int slack : {0, 2})
            for (const bool allowed : {false, true}) {
              ++seed;
              SCOPED_TRACE(::testing::Message()
                           << "seed " << seed << ", " << sites << " sites");
              expect_search_matches_enumeration(
                  search_problem(sites, n, pins, slack, allowed, false, seed),
                  kappa);
              if (HasFatalFailure()) return;
            }
  for (int kappa = 2; kappa <= 5; ++kappa)
    for (const int n : {24, 90})
      for (const double pins : {0.0, 0.25}) {
        ++seed;
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << ", uniform network");
        expect_search_matches_enumeration(
            search_problem(8, n, pins, 0, false, true, seed), kappa);
        if (HasFatalFailure()) return;
      }
}

// group_fills counts each prefix of the order tree once: the same count
// whatever the worker count, and so whatever the split depth.
TEST(GeoDist, GroupFillsCountEachPrefixOnce) {
  const RestoreWorkers restore_workers;
  const mapping::MappingProblem p =
      search_problem(12, 90, 0.25, 0, false, false, 7);
  for (int kappa = 2; kappa <= 5; ++kappa) {
    std::uint64_t prefixes = 0;
    std::uint64_t at_depth = 1;
    for (int depth = 1; depth <= kappa; ++depth) {
      at_depth *= static_cast<std::uint64_t>(kappa - depth + 1);
      prefixes += at_depth;
    }
    for (std::size_t workers = 1; workers <= 4; ++workers) {
      set_parallel_workers(workers);
      obs::Collector collector;
      GeoDistOptions options;
      options.kappa = kappa;
      GeoDistMapper geo(options);
      geo.set_collector(&collector);
      (void)geo.map(p);
      const obs::PhaseSnapshot root = collector.profile().snapshot();
      ASSERT_EQ(root.children.size(), 1u);
      const obs::PhaseSnapshot& mapper = root.children.front();
      const auto search = std::find_if(
          mapper.children.begin(), mapper.children.end(),
          [](const obs::PhaseSnapshot& s) { return s.name == "order-search"; });
      ASSERT_NE(search, mapper.children.end());
      EXPECT_EQ(search->counters.at("group_fills"), prefixes)
          << "kappa " << kappa << " workers " << workers;
    }
  }
}

TEST(GeoDist, RespectsConstraintsAndCapacities) {
  const mapping::MappingProblem p = random_problem(32, 0.4, 77);
  GeoDistMapper mapper;
  const Mapping m = mapper.map(p);
  EXPECT_NO_THROW(mapping::validate_mapping(p, m));
}

TEST(GeoDist, EvaluatesKappaFactorialOrders) {
  const mapping::MappingProblem p = random_problem(16, 0.0, 5);
  GeoDistOptions opts;
  opts.kappa = 3;
  GeoDistMapper mapper(opts);
  (void)mapper.map(p);
  const int kappa = mapper.last_grouping().num_groups;
  int expected = 1;
  for (int i = 2; i <= kappa; ++i) expected *= i;
  EXPECT_EQ(mapper.last_orders_evaluated(), expected);
}

TEST(GeoDist, SingleOrderWhenSearchDisabled) {
  const mapping::MappingProblem p = random_problem(16, 0.0, 5);
  GeoDistOptions opts;
  opts.search_orders = false;
  GeoDistMapper mapper(opts);
  (void)mapper.map(p);
  EXPECT_EQ(mapper.last_orders_evaluated(), 1);
}

TEST(GeoDist, OrderSearchNeverHurts) {
  for (const std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
    const mapping::MappingProblem p = random_problem(24, 0.2, seed);
    GeoDistOptions search;
    GeoDistOptions no_search;
    no_search.search_orders = false;
    GeoDistMapper with(search), without(no_search);
    const mapping::CostEvaluator eval(p);
    EXPECT_LE(eval.total_cost(with.map(p)), eval.total_cost(without.map(p)));
  }
}

TEST(GeoDist, ParallelOrdersMatchesSerial) {
  const mapping::MappingProblem p = random_problem(24, 0.2, 55);
  GeoDistOptions par, ser;
  par.parallel_orders = true;
  ser.parallel_orders = false;
  GeoDistMapper a(par), b(ser);
  EXPECT_EQ(a.map(p), b.map(p));
}

TEST(GeoDist, BeatsRandomBaselineOnAverage) {
  double geo_total = 0, base_total = 0;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    const mapping::MappingProblem p = random_problem(24, 0.2, seed);
    const mapping::CostEvaluator eval(p);
    GeoDistMapper geo;
    mapping::RandomMapper baseline(seed);
    geo_total += eval.total_cost(geo.map(p));
    base_total += eval.total_cost(baseline.map(p));
  }
  EXPECT_LT(geo_total, base_total * 0.8);
}

TEST(GeoDist, GroupingSourceSelection) {
  mapping::MappingProblem p = random_problem(16, 0.0, 5);
  p.site_coords.clear();
  GeoDistOptions opts;
  opts.kappa = 2;  // < M, so grouping is active
  // Explicit coordinates grouping without coordinates: hard error.
  opts.grouping_source = GeoDistOptions::GroupingSource::kCoordinates;
  GeoDistMapper strict(opts);
  EXPECT_THROW(strict.map(p), Error);
  // Auto falls back to latency-based k-medoids.
  opts.grouping_source = GeoDistOptions::GroupingSource::kAuto;
  GeoDistMapper fallback(opts);
  EXPECT_NO_THROW(fallback.map(p));
  EXPECT_EQ(fallback.last_grouping().num_groups, 2);
  // With kappa >= M no clustering is needed at all.
  opts.kappa = 4;
  GeoDistMapper no_cluster(opts);
  EXPECT_NO_THROW(no_cluster.map(p));
}

TEST(Grouping, LatencyMedoidsClusterNearbySites) {
  // On the 4-region cloud, the two US coasts have far lower mutual
  // latency than either has to Ireland or Singapore.
  const net::CloudTopology topo(net::aws_experiment_profile());
  const net::NetworkModel model = net::NetworkModel::from_ground_truth(topo);
  const Grouping g = group_sites_by_latency(model, 2);
  ASSERT_EQ(g.num_groups, 2);
  EXPECT_EQ(g.group_of_site[0], g.group_of_site[1]);  // us-east, us-west
  // Partition invariants.
  std::size_t total = 0;
  for (const auto& members : g.members) total += members.size();
  EXPECT_EQ(total, 4u);
}

TEST(Grouping, LatencyMedoidsSingletonWhenKappaCoversAll) {
  const net::CloudTopology topo(net::aws_experiment_profile());
  const net::NetworkModel model = net::NetworkModel::from_ground_truth(topo);
  EXPECT_EQ(group_sites_by_latency(model, 9).num_groups, 4);
}

TEST(GeoDist, GuardsFactorialExplosion) {
  // 10! orders exceed the guard; 25! does not fit in 64 bits at all.
  for (const int sites : {10, 25}) {
    Rng rng(5);
    const net::CloudTopology topo(net::synthetic_profile(sites, 2, 7));
    mapping::MappingProblem p;
    p.comm = testutil::random_comm(20, 3, rng);
    p.network = net::NetworkModel::from_ground_truth(topo);
    p.capacities = topo.capacities();
    p.site_coords = topo.coordinates();
    GeoDistOptions opts;
    opts.use_grouping = false;  // one group per site
    opts.max_orders = 5040;
    GeoDistMapper mapper(opts);
    EXPECT_THROW(mapper.map(p), Error);
  }
}

TEST(MonteCarlo, DeterministicAndParallelConsistent) {
  const mapping::MappingProblem p = random_problem(16, 0.2, 9);
  MonteCarloOptions opts;
  opts.samples = 4000;
  opts.parallel = true;
  const MonteCarloResult a = run_monte_carlo(p, opts);
  opts.parallel = false;
  const MonteCarloResult b = run_monte_carlo(p, opts);
  EXPECT_EQ(a.costs, b.costs);
  EXPECT_LE(a.best, a.mean);
  EXPECT_LE(a.mean, a.worst);
}

TEST(MonteCarlo, FractionBelowAndBestOfK) {
  const mapping::MappingProblem p = random_problem(16, 0.0, 19);
  MonteCarloOptions opts;
  opts.samples = 2000;
  const MonteCarloResult result = run_monte_carlo(p, opts);
  EXPECT_DOUBLE_EQ(result.fraction_below(result.best), 0.0);
  EXPECT_DOUBLE_EQ(result.fraction_below(result.worst * 1.01), 1.0);
  const auto curve = result.best_of_k({1, 10, 100, 2000});
  for (std::size_t i = 1; i < curve.size(); ++i)
    EXPECT_LE(curve[i], curve[i - 1]);
  EXPECT_DOUBLE_EQ(curve.back(), result.best);
  EXPECT_THROW(result.best_of_k({0}), Error);
  EXPECT_THROW(result.best_of_k({99999}), Error);
}

TEST(MonteCarlo, GeoDistLandsInTheBestTail) {
  const mapping::MappingProblem p = random_problem(24, 0.2, 4, 5);
  MonteCarloOptions opts;
  opts.samples = 5000;
  const MonteCarloResult mc = run_monte_carlo(p, opts);
  GeoDistMapper geo;
  const double geo_cost =
      mapping::CostEvaluator(p).total_cost(geo.map(p));
  // The paper reports <1% of random mappings beat the algorithm.
  EXPECT_LT(mc.fraction_below(geo_cost), 0.05);
}

TEST(Pipeline, EndToEndProducesValidatedRun) {
  const net::CloudTopology topo(net::aws_experiment_profile(4));
  Rng rng(8);
  trace::CommMatrix comm = testutil::random_comm(16, 4, rng);
  ConstraintVector constraints = mapping::make_random_constraints(
      16, topo.capacities(), 0.2, rng);

  Pipeline pipeline;
  const PipelineResult result = pipeline.execute(topo, std::move(comm),
                                                 std::move(constraints));
  EXPECT_EQ(result.run.mapper, "Geo-distributed");
  EXPECT_GT(result.run.cost, 0.0);
  // 16 ordered site pairs x 5 default calibration rounds.
  EXPECT_EQ(result.calibration.measurements, 80);
  EXPECT_EQ(static_cast<int>(result.run.mapping.size()), 16);
}

TEST(Pipeline, MakeProblemWiresTopologyFields) {
  const net::CloudTopology topo(net::aws_experiment_profile(4));
  Rng rng(8);
  const mapping::MappingProblem p = make_problem(
      topo, net::NetworkModel::from_ground_truth(topo),
      testutil::random_comm(16, 4, rng));
  EXPECT_EQ(p.num_sites(), 4);
  EXPECT_EQ(p.capacities, topo.capacities());
  EXPECT_EQ(p.site_coords.size(), 4u);
  EXPECT_TRUE(p.constraints.empty());
}

}  // namespace
}  // namespace geomap::core

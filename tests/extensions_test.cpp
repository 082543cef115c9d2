// Tests for the extensions beyond the paper's core algorithm: multi-site
// (allowed-set) constraints with augmenting-path repair, the simulated
// annealing baseline, latency-based grouping, and multi-cloud topologies.

#include <gtest/gtest.h>

#include <set>

#include "common/error.h"
#include "core/geodist_mapper.h"
#include "mapping/allowed_sites.h"
#include "mapping/annealing_mapper.h"
#include "mapping/cost.h"
#include "mapping/exhaustive_mapper.h"
#include "mapping/greedy_mapper.h"
#include "mapping/mpipp_mapper.h"
#include "mapping/random_mapper.h"
#include "mapping/round_robin_mapper.h"
#include "net/calibration.h"
#include "net/cloud.h"
#include "test_util.h"

namespace geomap::mapping {
namespace {

using testutil::random_problem;

// ---------- allowed-site machinery ----------

TEST(AllowedSites, SiteAllowedSemantics) {
  AllowedSites allowed;
  EXPECT_TRUE(site_allowed(allowed, 0, 3));  // empty vector: unrestricted
  allowed = {{1, 3}, {}};
  EXPECT_TRUE(site_allowed(allowed, 0, 1));
  EXPECT_TRUE(site_allowed(allowed, 0, 3));
  EXPECT_FALSE(site_allowed(allowed, 0, 2));
  EXPECT_TRUE(site_allowed(allowed, 1, 2));  // empty list: unrestricted
}

TEST(AllowedSites, ValidationCatchesBadLists) {
  MappingProblem p = random_problem(8, 0.0, 1);
  p.allowed_sites.assign(8, {});
  p.allowed_sites[0] = {9};  // out of range
  EXPECT_THROW(p.validate(), Error);
  p.allowed_sites[0] = {2, 1};  // unsorted
  EXPECT_THROW(p.validate(), Error);
  p.allowed_sites[0] = {1, 1};  // duplicate
  EXPECT_THROW(p.validate(), Error);
  p.allowed_sites[0] = {1, 2};
  EXPECT_NO_THROW(p.validate());
}

TEST(AllowedSites, ValidationCatchesPinOutsideAllowedSet) {
  MappingProblem p = random_problem(8, 0.0, 2);
  p.constraints.assign(8, kUnconstrained);
  p.constraints[3] = 0;
  p.allowed_sites.assign(8, {});
  p.allowed_sites[3] = {1, 2};  // pin to 0 conflicts
  EXPECT_THROW(p.validate(), Error);
}

TEST(AllowedSites, ValidationDetectsInfeasibleSystem) {
  // 8 processes, capacities 2 per site; 5 processes restricted to the
  // same two sites (capacity 4): infeasible by Hall's condition.
  MappingProblem p = random_problem(8, 0.0, 3);
  p.allowed_sites.assign(8, {});
  for (int i = 0; i < 5; ++i) p.allowed_sites[static_cast<std::size_t>(i)] = {0, 1};
  EXPECT_THROW(p.validate(), Error);
  // With 4 restricted it is exactly tight and feasible.
  p.allowed_sites[4].clear();
  EXPECT_NO_THROW(p.validate());
}

TEST(AllowedSites, CompleteAssignmentAugmentsThroughFullSites) {
  // Site capacities {1,1}; process 0 placed on site 0 but also allowed
  // on site 1; process 1 only allowed on site 0 -> must evict 0 to 1.
  MappingProblem p = testutil::tiny_problem(2, 5);
  p.capacities = {1, 1, 0};
  p.allowed_sites = {{0, 1}, {0}};
  Mapping mapping = {0, kUnmapped};
  std::vector<int> free = {0, 1, 0};
  std::vector<char> movable = {1, 1};
  ASSERT_TRUE(complete_assignment(p, mapping, free, movable));
  EXPECT_EQ(mapping[0], 1);
  EXPECT_EQ(mapping[1], 0);
}

TEST(AllowedSites, CompleteAssignmentRespectsImmovablePins) {
  MappingProblem p = testutil::tiny_problem(2, 5);
  p.capacities = {1, 1, 0};
  p.allowed_sites = {{0, 1}, {0}};
  Mapping mapping = {0, kUnmapped};
  std::vector<int> free = {0, 1, 0};
  std::vector<char> movable = {0, 1};  // process 0 pinned in place
  EXPECT_FALSE(complete_assignment(p, mapping, free, movable));
}

// Every mapper produces feasible mappings under allowed-site sets.
struct MapperCase {
  std::string name;
  std::function<std::unique_ptr<Mapper>()> make;
};

const MapperCase kAllowedCases[] = {
    {"Baseline", [] { return std::make_unique<RandomMapper>(); }},
    {"Block", [] { return std::make_unique<BlockMapper>(); }},
    {"Cyclic", [] { return std::make_unique<CyclicMapper>(); }},
    {"Greedy", [] { return std::make_unique<GreedyMapper>(); }},
    {"MPIPP", [] { return std::make_unique<MpippMapper>(); }},
    {"Annealing", [] { return std::make_unique<AnnealingMapper>(); }},
    {"GeoDistributed",
     [] { return std::make_unique<core::GeoDistMapper>(); }},
    {"GeoDistNaive",
     [] {
       core::GeoDistOptions opts;
       opts.fill = core::GeoDistOptions::FillEngine::kNaive;
       return std::make_unique<core::GeoDistMapper>(opts);
     }},
};

class AllowedSitesMappers
    : public ::testing::TestWithParam<std::tuple<MapperCase, int>> {};

TEST_P(AllowedSitesMappers, FeasibleUnderMultiSiteConstraints) {
  const auto& [mapper_case, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  MappingProblem p = random_problem(20, 0.1, static_cast<std::uint64_t>(seed));
  // Random allowed sets of size 2-4 for half the unpinned processes.
  p.allowed_sites.assign(20, {});
  for (ProcessId i = 0; i < 20; ++i) {
    if (!p.constraints.empty() && p.constraints[static_cast<std::size_t>(i)] != kUnconstrained)
      continue;
    if (rng.uniform() < 0.5) continue;
    std::set<SiteId> sites;
    const auto count = 2 + rng.uniform_index(3);
    while (sites.size() < count)
      sites.insert(static_cast<SiteId>(rng.uniform_index(4)));
    p.allowed_sites[static_cast<std::size_t>(i)].assign(sites.begin(),
                                                        sites.end());
  }
  p.validate();

  auto mapper = mapper_case.make();
  const MapperRun run = run_mapper(*mapper, p);  // validates feasibility
  EXPECT_GT(run.cost, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Mappers, AllowedSitesMappers,
    ::testing::Combine(::testing::ValuesIn(kAllowedCases),
                       ::testing::Values(11, 22, 33)),
    [](const ::testing::TestParamInfo<AllowedSitesMappers::ParamType>& test) {
      return std::get<0>(test.param).name + "_seed" +
             std::to_string(std::get<1>(test.param));
    });

TEST(AllowedSites, TightInstanceForcesUniquePlacement) {
  // A fully-determined system: every process allowed exactly one site.
  MappingProblem p = random_problem(8, 0.0, 7);
  p.allowed_sites.assign(8, {});
  for (ProcessId i = 0; i < 8; ++i)
    p.allowed_sites[static_cast<std::size_t>(i)] = {static_cast<SiteId>(i / 2)};
  p.validate();
  for (const MapperCase& mc : kAllowedCases) {
    auto mapper = mc.make();
    const Mapping m = mapper->map(p);
    for (ProcessId i = 0; i < 8; ++i)
      EXPECT_EQ(m[static_cast<std::size_t>(i)], i / 2) << mc.name;
  }
}

TEST(AllowedSites, GeoDistExploitsChoiceWithinSets) {
  // Two heavy cliques; each clique's processes allowed on two sites.
  // GeoDist should co-locate each clique on a single allowed site.
  trace::CommMatrix::Builder b(8);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      if (i != j) b.add_message(i, j, 1 << 20, 4);
  for (int i = 4; i < 8; ++i)
    for (int j = 4; j < 8; ++j)
      if (i != j) b.add_message(i, j, 1 << 20, 4);

  const net::CloudTopology topo(net::aws_experiment_profile(4));
  MappingProblem p;
  p.comm = b.build();
  p.network = net::NetworkModel::from_ground_truth(topo);
  p.capacities = topo.capacities();
  p.site_coords = topo.coordinates();
  p.allowed_sites.assign(8, {});
  for (int i = 0; i < 4; ++i) p.allowed_sites[static_cast<std::size_t>(i)] = {0, 1};
  for (int i = 4; i < 8; ++i) p.allowed_sites[static_cast<std::size_t>(i)] = {2, 3};
  p.validate();

  core::GeoDistMapper geo;
  const Mapping m = geo.map(p);
  EXPECT_EQ(m[0], m[1]);
  EXPECT_EQ(m[1], m[2]);
  EXPECT_EQ(m[2], m[3]);
  EXPECT_EQ(m[4], m[5]);
  EXPECT_EQ(m[5], m[6]);
  EXPECT_EQ(m[6], m[7]);
  EXPECT_TRUE(m[0] == 0 || m[0] == 1);
  EXPECT_TRUE(m[4] == 2 || m[4] == 3);
}

// ---------- hierarchical recursion ----------

TEST(Hierarchical, FeasibleAndCompetitiveOnManySites) {
  // 12-site synthetic world, grouping into 4: hierarchical and flat both
  // must produce feasible mappings of comparable quality.
  Rng rng(5);
  const net::CloudTopology topo(net::synthetic_profile(12, 4, 21));
  MappingProblem p;
  p.comm = testutil::random_comm(40, 5, rng);
  p.network = net::NetworkModel::from_ground_truth(topo);
  p.capacities = topo.capacities();
  p.site_coords = topo.coordinates();
  p.constraints =
      make_random_constraints(40, p.capacities, 0.2, rng);
  p.validate();

  core::GeoDistOptions flat_opts, hier_opts;
  hier_opts.hierarchical = true;
  core::GeoDistMapper flat(flat_opts), hier(hier_opts);
  const Mapping m_flat = flat.map(p);
  const Mapping m_hier = hier.map(p);
  validate_mapping(p, m_flat);
  validate_mapping(p, m_hier);

  const CostEvaluator eval(p);
  const double c_flat = eval.total_cost(m_flat);
  const double c_hier = eval.total_cost(m_hier);
  // Same ballpark (within 40% of each other) — they optimize the same
  // objective through different decompositions.
  EXPECT_LT(c_hier, c_flat * 1.4);
  EXPECT_LT(c_flat, c_hier * 1.4);

  // Both clearly beat random.
  Rng brng(77);
  const double c_rand = eval.total_cost(RandomMapper::draw(p, brng));
  EXPECT_LT(c_flat, c_rand);
  EXPECT_LT(c_hier, c_rand);
}

TEST(Hierarchical, HonoursPinsAndAllowedSets) {
  Rng rng(15);
  const net::CloudTopology topo(net::synthetic_profile(9, 4, 31));
  MappingProblem p;
  p.comm = testutil::random_comm(24, 4, rng);
  p.network = net::NetworkModel::from_ground_truth(topo);
  p.capacities = topo.capacities();
  p.site_coords = topo.coordinates();
  p.constraints.assign(24, kUnconstrained);
  p.constraints[0] = 5;
  p.constraints[1] = 8;
  p.allowed_sites.assign(24, {});
  p.allowed_sites[2] = {0, 1};
  p.allowed_sites[3] = {6, 7, 8};
  p.validate();

  core::GeoDistOptions opts;
  opts.hierarchical = true;
  core::GeoDistMapper hier(opts);
  const Mapping m = hier.map(p);
  validate_mapping(p, m);
  EXPECT_EQ(m[0], 5);
  EXPECT_EQ(m[1], 8);
  EXPECT_TRUE(m[2] == 0 || m[2] == 1);
  EXPECT_TRUE(m[3] >= 6 && m[3] <= 8);
}

TEST(Hierarchical, EquivalentToFlatWhenGroupingDegenerate) {
  // kappa >= M: no grouping happens, hierarchical falls through to the
  // flat path and must agree bit-for-bit.
  const MappingProblem p = random_problem(16, 0.2, 51);
  core::GeoDistOptions flat_opts, hier_opts;
  hier_opts.hierarchical = true;
  hier_opts.kappa = 8;  // > M=4
  flat_opts.kappa = 8;
  core::GeoDistMapper flat(flat_opts), hier(hier_opts);
  EXPECT_EQ(flat.map(p), hier.map(p));
}

// ---------- simulated annealing ----------

TEST(Annealing, BeatsItsRandomStart) {
  const MappingProblem p = random_problem(24, 0.2, 41);
  const CostEvaluator eval(p);
  AnnealingOptions opts;
  opts.seed = 17;
  AnnealingMapper annealing(opts);
  Rng rng(17);
  const Mapping start = RandomMapper::draw(p, rng);
  const Mapping refined = annealing.map(p);
  EXPECT_LT(eval.total_cost(refined), eval.total_cost(start));
}

TEST(Annealing, NearOptimalOnTinyInstance) {
  const MappingProblem p = testutil::tiny_problem(8, 13);
  ExhaustiveMapper optimal;
  AnnealingMapper annealing;
  const CostEvaluator eval(p);
  const double best = eval.total_cost(optimal.map(p));
  const double got = eval.total_cost(annealing.map(p));
  EXPECT_LE(got, best * 1.15);
  EXPECT_GE(got, best * (1 - 1e-9));
}

TEST(Annealing, DeterministicInSeed) {
  const MappingProblem p = random_problem(16, 0.2, 43);
  AnnealingMapper a, b;
  EXPECT_EQ(a.map(p), b.map(p));
}

// ---------- multi-cloud topologies ----------

TEST(MultiCloud, MergePreservesIntraProviderGroundTruth) {
  const net::CloudTopology aws(net::aws_experiment_profile(4));
  const net::CloudTopology azure(net::azure2016_profile(4));
  const net::CloudTopology merged = net::CloudTopology::merge({&aws, &azure});

  ASSERT_EQ(merged.num_sites(), aws.num_sites() + azure.num_sites());
  EXPECT_EQ(merged.total_nodes(), aws.total_nodes() + azure.total_nodes());
  for (SiteId k = 0; k < aws.num_sites(); ++k) {
    for (SiteId l = 0; l < aws.num_sites(); ++l) {
      EXPECT_DOUBLE_EQ(merged.true_latency(k, l), aws.true_latency(k, l));
      EXPECT_DOUBLE_EQ(merged.true_bandwidth(k, l), aws.true_bandwidth(k, l));
    }
  }
  const int off = aws.num_sites();
  for (SiteId k = 0; k < azure.num_sites(); ++k) {
    for (SiteId l = 0; l < azure.num_sites(); ++l) {
      EXPECT_DOUBLE_EQ(merged.true_latency(k + off, l + off),
                       azure.true_latency(k, l));
    }
  }
}

TEST(MultiCloud, PeeringLinksArePessimistic) {
  const net::CloudTopology aws(net::aws_experiment_profile(4));
  const net::CloudTopology azure(net::azure2016_profile(4));
  const net::CloudTopology merged =
      net::CloudTopology::merge({&aws, &azure}, 0.7, 2.0);

  // AWS us-east-1 and Azure East US are nearly co-located: even so, the
  // peering link must be far slower than an intra-provider region link.
  const SiteId aws_east = 0;                       // us-east-1
  const SiteId azure_east = aws.num_sites() + 0;   // East US
  EXPECT_LT(merged.true_bandwidth(aws_east, azure_east),
            0.8 * merged.true_bandwidth(aws_east, aws_east));
  // Peering latency floor applies.
  EXPECT_GT(merged.true_latency(aws_east, azure_east), 2.0e-3);
  // Names carry provider provenance.
  EXPECT_NE(merged.site(aws_east).name.find("AmazonEC2/"), std::string::npos);
  EXPECT_NE(merged.site(azure_east).name.find("WindowsAzure/"),
            std::string::npos);
}

TEST(MultiCloud, EndToEndMappingAcrossProviders) {
  const net::CloudTopology aws(net::aws_experiment_profile(3));
  const net::CloudTopology azure(net::azure2016_profile(3));
  const net::CloudTopology merged = net::CloudTopology::merge({&aws, &azure});
  const net::CalibrationResult calib = net::Calibrator().calibrate(merged);

  Rng rng(3);
  MappingProblem p;
  p.comm = testutil::random_comm(24, 4, rng);
  p.network = calib.model;
  p.capacities = merged.capacities();
  p.site_coords = merged.coordinates();
  p.validate();

  core::GeoDistMapper geo;
  RandomMapper baseline(9);
  const CostEvaluator eval(p);
  const Mapping geo_map = geo.map(p);
  validate_mapping(p, geo_map);
  EXPECT_LT(eval.total_cost(geo_map), eval.total_cost(baseline.map(p)));
}

TEST(MultiCloud, MergeRejectsBadArguments) {
  EXPECT_THROW(net::CloudTopology::merge({}), Error);
  const net::CloudTopology aws(net::aws_experiment_profile(2));
  EXPECT_THROW(net::CloudTopology::merge({&aws}, 0.0), Error);
}

}  // namespace
}  // namespace geomap::mapping

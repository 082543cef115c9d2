// Tests for the mapping library: problem validation, cost function
// correctness (full + incremental), and feasibility/quality properties of
// every mapper, parameterized across algorithms and random instances.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.h"
#include "common/error.h"
#include "mapping/cost.h"
#include "mapping/exhaustive_mapper.h"
#include "mapping/greedy_mapper.h"
#include "mapping/mapper.h"
#include "mapping/metrics.h"
#include "mapping/mpipp_mapper.h"
#include "mapping/problem.h"
#include "mapping/random_mapper.h"
#include "mapping/round_robin_mapper.h"
#include "core/geodist_mapper.h"
#include "test_util.h"

namespace geomap::mapping {
namespace {

using testutil::random_problem;
using testutil::tiny_problem;

TEST(Problem, ValidateCatchesMalformedInstances) {
  MappingProblem p = random_problem(8, 0.0, 1);
  EXPECT_NO_THROW(p.validate());

  MappingProblem bad_caps = p;
  bad_caps.capacities.pop_back();
  EXPECT_THROW(bad_caps.validate(), Error);

  MappingProblem no_room = p;
  for (auto& c : no_room.capacities) c = 1;  // 4 < 8 processes
  EXPECT_THROW(no_room.validate(), Error);

  MappingProblem bad_pin = p;
  bad_pin.constraints.assign(8, kUnconstrained);
  bad_pin.constraints[0] = 99;
  EXPECT_THROW(bad_pin.validate(), Error);

  MappingProblem overfull_pin = p;
  overfull_pin.constraints.assign(8, 0);  // all pinned to site 0 (cap 2)
  EXPECT_THROW(overfull_pin.validate(), Error);
}

TEST(Problem, ValidateThrowsInvalidArgumentForBadInput) {
  // Malformed instances are caller errors: validate() must throw the
  // InvalidArgument subclass, not just the Error base.
  MappingProblem p = random_problem(8, 0.0, 1);

  MappingProblem negative_cap = p;
  negative_cap.capacities[1] = -3;
  EXPECT_THROW(negative_cap.validate(), InvalidArgument);

  MappingProblem infeasible = p;
  for (auto& c : infeasible.capacities) c = 1;  // total 4 < 8 processes
  EXPECT_THROW(infeasible.validate(), InvalidArgument);

  MappingProblem pin_out_of_range = p;
  pin_out_of_range.constraints.assign(8, kUnconstrained);
  pin_out_of_range.constraints[2] = p.num_sites();
  EXPECT_THROW(pin_out_of_range.validate(), InvalidArgument);

  MappingProblem pins_overflow_site = p;
  pins_overflow_site.constraints.assign(8, 0);  // site 0 holds only 2
  EXPECT_THROW(pins_overflow_site.validate(), InvalidArgument);

  MappingProblem wrong_constraint_len = p;
  wrong_constraint_len.constraints.assign(5, kUnconstrained);
  EXPECT_THROW(wrong_constraint_len.validate(), InvalidArgument);
}

TEST(Problem, CapacityViolatingMappingThrowsConstraintViolation) {
  const MappingProblem p = random_problem(8, 0.0, 4);
  // Cram everything onto site 1 (capacity 2): feasibility, not input
  // shape, is what breaks — so this is ConstraintViolation.
  const Mapping crammed(8, 1);
  EXPECT_THROW(validate_mapping(p, crammed), ConstraintViolation);
  EXPECT_FALSE(is_feasible(p, crammed));
}

TEST(Problem, ValidateMappingCatchesViolations) {
  MappingProblem p = random_problem(8, 0.0, 2);
  p.constraints.assign(8, kUnconstrained);
  p.constraints[3] = 2;

  Mapping ok(8, 0);
  // Capacity of site 0 is 2 -> overfull.
  EXPECT_THROW(validate_mapping(p, ok), ConstraintViolation);

  Mapping spread = {0, 0, 1, 2, 1, 2, 3, 3};
  EXPECT_NO_THROW(validate_mapping(p, spread));
  EXPECT_TRUE(is_feasible(p, spread));

  Mapping pin_broken = spread;
  pin_broken[3] = 1;
  pin_broken[2] = 2;
  EXPECT_THROW(validate_mapping(p, pin_broken), ConstraintViolation);

  Mapping wrong_size(7, 0);
  EXPECT_THROW(validate_mapping(p, wrong_size), ConstraintViolation);
  Mapping bad_site = spread;
  bad_site[0] = 9;
  EXPECT_THROW(validate_mapping(p, bad_site), ConstraintViolation);
}

TEST(Problem, RandomConstraintsHonourRatioAndCapacity) {
  Rng rng(3);
  const std::vector<int> caps = {4, 4, 4, 4};
  for (const double ratio : {0.0, 0.25, 0.5, 1.0}) {
    const ConstraintVector c = make_random_constraints(16, caps, ratio, rng);
    int pinned = 0;
    std::vector<int> per_site(4, 0);
    for (const SiteId s : c) {
      if (s == kUnconstrained) continue;
      ++pinned;
      ++per_site[static_cast<std::size_t>(s)];
    }
    EXPECT_EQ(pinned, static_cast<int>(ratio * 16 + 0.5)) << ratio;
    for (int j = 0; j < 4; ++j) EXPECT_LE(per_site[static_cast<std::size_t>(j)], 4);
  }
}

// Cost function vs a direct dense evaluation of paper Equation (2).
TEST(Cost, MatchesDenseReference) {
  const MappingProblem p = random_problem(12, 0.0, 5);
  Rng rng(17);
  const Mapping mapping = RandomMapper::draw(p, rng);
  const CostEvaluator eval(p);

  double expected = 0;
  for (ProcessId i = 0; i < p.num_processes(); ++i) {
    for (ProcessId j = 0; j < p.num_processes(); ++j) {
      const double vol = p.comm.volume(i, j);
      const double cnt = p.comm.count(i, j);
      if (vol == 0 && cnt == 0) continue;
      const SiteId si = mapping[static_cast<std::size_t>(i)];
      const SiteId sj = mapping[static_cast<std::size_t>(j)];
      expected += cnt * p.network.latency(si, sj) +
                  vol / p.network.bandwidth(si, sj);
    }
  }
  EXPECT_NEAR(eval.total_cost(mapping), expected, expected * 1e-12);
}

/// Inputs of the recompute properties below: a 16-process random problem,
/// plus LU and K-means patterns at N = 4096 on the 4-region AWS cloud, so
/// the incremental updates read the transpose (in_row) at scale.
std::vector<MappingProblem> recompute_problems(std::uint64_t seed) {
  std::vector<MappingProblem> problems;
  problems.push_back(random_problem(16, 0.0, seed));
  const int n = 4096;
  const net::CloudTopology topo(net::aws_experiment_profile(n / 4));
  for (const char* name : {"LU", "K-means"}) {
    const apps::App& app = apps::app_by_name(name);
    MappingProblem p;
    p.comm = app.synthetic_pattern(n, app.default_config(n));
    p.network = net::NetworkModel::from_ground_truth(topo);
    p.capacities = topo.capacities();
    p.site_coords = topo.coordinates();
    p.validate();
    problems.push_back(std::move(p));
  }
  return problems;
}

// Property: delta_move equals recomputing the full cost, across many
// random moves, and so does the change in the moved process's
// incident_cost; every edge is incident to two processes.
TEST(Cost, DeltaMoveMatchesRecompute) {
  for (const MappingProblem& p : recompute_problems(7)) {
    const int n = p.num_processes();
    SCOPED_TRACE("N=" + std::to_string(n));
    const CostEvaluator eval(p);
    Rng rng(23);
    // The cost function is capacity-agnostic, so arbitrary moves are fine.
    Mapping mapping = RandomMapper::draw(p, rng);
    double before = eval.total_cost(mapping);
    for (int trial = 0; trial < 60; ++trial) {
      const auto i = static_cast<ProcessId>(rng.uniform_index(n));
      const auto to = static_cast<SiteId>(rng.uniform_index(p.num_sites()));
      const double delta = eval.delta_move(mapping, i, to);
      Mapping moved = mapping;
      moved[static_cast<std::size_t>(i)] = to;
      const double after = eval.total_cost(moved);
      EXPECT_NEAR(before + delta, after, before * 1e-10);
      EXPECT_NEAR(eval.incident_cost(moved, i) - eval.incident_cost(mapping, i),
                  delta, before * 1e-10);
      mapping = moved;
      before = after;
    }
    double incident = 0;
    for (ProcessId i = 0; i < n; ++i) incident += eval.incident_cost(mapping, i);
    EXPECT_NEAR(incident, 2 * before, before * 1e-10);
  }
}

TEST(Cost, DeltaSwapMatchesRecomputeAndRestores) {
  for (const MappingProblem& p : recompute_problems(9)) {
    const int n = p.num_processes();
    SCOPED_TRACE("N=" + std::to_string(n));
    const CostEvaluator eval(p);
    Rng rng(29);
    Mapping mapping = RandomMapper::draw(p, rng);
    const Mapping snapshot = mapping;
    const double before = eval.total_cost(mapping);
    for (int trial = 0; trial < 60; ++trial) {
      const auto a = static_cast<ProcessId>(rng.uniform_index(n));
      const auto b = static_cast<ProcessId>(rng.uniform_index(n));
      if (a == b) continue;
      const double delta = eval.delta_swap(mapping, a, b);
      EXPECT_EQ(mapping, snapshot) << "delta_swap must restore the mapping";
      Mapping swapped = mapping;
      std::swap(swapped[static_cast<std::size_t>(a)],
                swapped[static_cast<std::size_t>(b)]);
      EXPECT_NEAR(before + delta, eval.total_cost(swapped), before * 1e-10);
    }
  }
}

TEST(Cost, IncidentCostSumsBothDirections) {
  trace::CommMatrix::Builder b(3);
  b.add_message(0, 1, 1000, 2);
  b.add_message(1, 0, 500, 1);
  b.add_message(2, 1, 200, 1);
  Matrix lat = Matrix::square(2, 0.0);
  lat(0, 1) = 0.1;
  lat(1, 0) = 0.2;
  Matrix bw = Matrix::square(2, 1e3);
  MappingProblem p;
  p.comm = b.build();
  p.network = net::NetworkModel(lat, bw);
  p.capacities = {2, 2};
  const CostEvaluator eval(p);
  const Mapping m = {0, 1, 1};
  // Process 1's incident edges: 0->1 (2*0.1 + 1), 1->0 (1*0.2 + 0.5),
  // 2->1 (intra: 0 + 0.2).
  EXPECT_NEAR(eval.incident_cost(m, 1), (0.2 + 1.0) + (0.2 + 0.5) + 0.2,
              1e-12);
  // All edges touch process 1, so incident(1) == total.
  EXPECT_NEAR(eval.incident_cost(m, 1), eval.total_cost(m), 1e-12);
}

TEST(Metrics, ImprovementAndNormalize) {
  EXPECT_DOUBLE_EQ(improvement_percent(10.0, 5.0), 50.0);
  EXPECT_DOUBLE_EQ(improvement_percent(10.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(improvement_percent(10.0, 12.0), -20.0);
  EXPECT_THROW(improvement_percent(0.0, 5.0), Error);
  EXPECT_DOUBLE_EQ(normalize(5.0, 0.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(normalize(3.0, 3.0, 3.0), 0.0);
}

// ---- Parameterized feasibility suite over every mapper ----

struct MapperCase {
  std::string name;
  std::function<std::unique_ptr<Mapper>()> make;
};

// Printed by name: without a printer gtest dumps the case's bytes, its
// name's heap pointer first, into the test names.
void PrintTo(const MapperCase& mapper_case, std::ostream* os) {
  *os << mapper_case.name;
}

class AllMappersTest
    : public ::testing::TestWithParam<std::tuple<MapperCase, int>> {};

TEST_P(AllMappersTest, ProducesFeasibleMappingsUnderConstraints) {
  const auto& [mapper_case, seed] = GetParam();
  for (const double ratio : {0.0, 0.2, 0.6}) {
    const MappingProblem p =
        random_problem(20, ratio, static_cast<std::uint64_t>(seed));
    auto mapper = mapper_case.make();
    const MapperRun run = run_mapper(*mapper, p);  // validates internally
    EXPECT_GT(run.cost, 0.0);
    EXPECT_EQ(static_cast<int>(run.mapping.size()), 20);
  }
}

TEST_P(AllMappersTest, NeverWorseThanOptimalOnTinyInstances) {
  const auto& [mapper_case, seed] = GetParam();
  const MappingProblem p = tiny_problem(7, static_cast<std::uint64_t>(seed));
  ExhaustiveMapper optimal;
  const MapperRun best = run_mapper(optimal, p);
  auto mapper = mapper_case.make();
  const MapperRun run = run_mapper(*mapper, p);
  EXPECT_GE(run.cost, best.cost * (1.0 - 1e-9))
      << mapper_case.name << " beat the exhaustive optimum?!";
}

const MapperCase kMapperCases[] = {
    {"Baseline", [] { return std::make_unique<RandomMapper>(); }},
    {"Block", [] { return std::make_unique<BlockMapper>(); }},
    {"Cyclic", [] { return std::make_unique<CyclicMapper>(); }},
    {"Greedy", [] { return std::make_unique<GreedyMapper>(); }},
    {"MPIPP", [] { return std::make_unique<MpippMapper>(); }},
    {"GeoDistributed",
     [] { return std::make_unique<core::GeoDistMapper>(); }},
};

INSTANTIATE_TEST_SUITE_P(
    Mappers, AllMappersTest,
    ::testing::Combine(::testing::ValuesIn(kMapperCases),
                       ::testing::Values(101, 202, 303)),
    [](const ::testing::TestParamInfo<AllMappersTest::ParamType>& test) {
      return std::get<0>(test.param).name + "_seed" +
             std::to_string(std::get<1>(test.param));
    });

TEST(Exhaustive, FindsKnownOptimum) {
  // Two heavy-talking processes and two quiet ones, two sites: the
  // optimum co-locates the heavy pair on one site.
  trace::CommMatrix::Builder b(4);
  b.add_message(0, 1, 1 << 20, 10);
  b.add_message(2, 3, 1024, 1);
  Matrix lat = Matrix::square(2, 1e-4);
  lat(0, 1) = lat(1, 0) = 0.1;
  Matrix bw = Matrix::square(2, 100e6);
  bw(0, 1) = bw(1, 0) = 1e6;

  MappingProblem p;
  p.comm = b.build();
  p.network = net::NetworkModel(lat, bw);
  p.capacities = {2, 2};
  p.validate();

  ExhaustiveMapper mapper;
  const Mapping m = mapper.map(p);
  EXPECT_EQ(m[0], m[1]);
  EXPECT_EQ(m[2], m[3]);
  EXPECT_NE(m[0], m[2]);
}

TEST(Exhaustive, RefusesLargeInstances) {
  const MappingProblem p = random_problem(20, 0.0, 1);
  ExhaustiveMapper mapper(12);
  EXPECT_THROW(mapper.map(p), Error);
}

TEST(Mpipp, ImprovesOnItsRandomStart) {
  const MappingProblem p = random_problem(24, 0.2, 31);
  RandomMapper baseline(7);  // same seed as MPIPP's first restart
  MpippMapper mpipp;
  const MapperRun base = run_mapper(baseline, p);
  const MapperRun refined = run_mapper(mpipp, p);
  EXPECT_LE(refined.cost, base.cost);
}

TEST(RoundRobin, BlockFillsSitesInOrder) {
  const MappingProblem p = random_problem(8, 0.0, 3);
  BlockMapper mapper;
  const Mapping m = mapper.map(p);
  // Capacities are 2 per site: ranks 0,1 -> site 0; 2,3 -> site 1; ...
  EXPECT_EQ(m[0], 0);
  EXPECT_EQ(m[1], 0);
  EXPECT_EQ(m[2], 1);
  EXPECT_EQ(m[6], 3);
}

TEST(RoundRobin, CyclicDealsAcrossSites) {
  const MappingProblem p = random_problem(8, 0.0, 3);
  CyclicMapper mapper;
  const Mapping m = mapper.map(p);
  EXPECT_EQ(m[0], 0);
  EXPECT_EQ(m[1], 1);
  EXPECT_EQ(m[2], 2);
  EXPECT_EQ(m[3], 3);
  EXPECT_EQ(m[4], 0);
}

TEST(Greedy, CoLocatesHeavyPairsWhenRoomAllows) {
  // A clique of 4 heavy processes + 4 singletons, sites of capacity 4:
  // greedy graph growing should put the clique on one site.
  trace::CommMatrix::Builder b(8);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      if (i != j) b.add_message(i, j, 1 << 20, 5);
  b.add_message(4, 5, 64, 1);
  b.add_message(6, 7, 64, 1);

  const net::CloudTopology topo(net::aws_experiment_profile(4));
  MappingProblem p;
  p.comm = b.build();
  p.network = net::NetworkModel::from_ground_truth(topo);
  p.capacities = topo.capacities();
  p.site_coords = topo.coordinates();
  p.validate();

  GreedyMapper mapper;
  const Mapping m = mapper.map(p);
  EXPECT_EQ(m[0], m[1]);
  EXPECT_EQ(m[1], m[2]);
  EXPECT_EQ(m[2], m[3]);
}

TEST(RandomMapper, DrawIsUniformishAcrossSites) {
  const MappingProblem p = random_problem(16, 0.0, 13);
  Rng rng(99);
  std::vector<int> first_site(4, 0);
  for (int s = 0; s < 4000; ++s) {
    const Mapping m = RandomMapper::draw(p, rng);
    ++first_site[static_cast<std::size_t>(m[0])];
  }
  for (const int count : first_site) EXPECT_NEAR(count, 1000, 120);
}

}  // namespace
}  // namespace geomap::mapping

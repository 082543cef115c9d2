// Broad integration matrix: every mapper x every workload pattern x
// several deployments. These sweeps assert the invariants a downstream
// user relies on regardless of configuration: feasibility, determinism,
// and that the optimizing mappers never lose to random by more than
// noise. Parameterized gtest keeps each combination an individually
// reported test.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>

#include "apps/app.h"
#include "common/stats.h"
#include "core/geodist_mapper.h"
#include "mapping/annealing_mapper.h"
#include "mapping/cost.h"
#include "mapping/greedy_mapper.h"
#include "mapping/mpipp_mapper.h"
#include "mapping/random_mapper.h"
#include "mapping/round_robin_mapper.h"
#include "net/calibration.h"
#include "net/cloud.h"
#include "test_util.h"

namespace geomap {
namespace {

struct MapperCase {
  std::string name;
  std::function<std::unique_ptr<mapping::Mapper>()> make;
  bool optimizing;  // expected to beat random on average
};

const MapperCase kMappers[] = {
    {"Baseline", [] { return std::make_unique<mapping::RandomMapper>(); },
     false},
    {"Block", [] { return std::make_unique<mapping::BlockMapper>(); }, false},
    {"Cyclic", [] { return std::make_unique<mapping::CyclicMapper>(); },
     false},
    {"Greedy", [] { return std::make_unique<mapping::GreedyMapper>(); }, true},
    {"MPIPP", [] { return std::make_unique<mapping::MpippMapper>(); }, true},
    {"Annealing", [] { return std::make_unique<mapping::AnnealingMapper>(); },
     true},
    {"GeoDistributed",
     [] { return std::make_unique<core::GeoDistMapper>(); }, true},
    {"GeoHierarchical",
     [] {
       core::GeoDistOptions opts;
       opts.hierarchical = true;
       return std::make_unique<core::GeoDistMapper>(opts);
     },
     true},
};

struct DeploymentCase {
  std::string name;
  std::function<net::CloudTopology()> make;
};

const DeploymentCase kDeployments[] = {
    {"Aws4", [] { return net::CloudTopology(net::aws_experiment_profile(8)); }},
    {"Azure8",
     [] { return net::CloudTopology(net::azure2016_profile(4)); }},
    {"Synthetic6",
     [] { return net::CloudTopology(net::synthetic_profile(6, 6, 11)); }},
    {"MultiCloud",
     [] {
       const net::CloudTopology aws(net::aws_experiment_profile(3));
       const net::CloudTopology azure(net::azure2016_profile(3));
       return net::CloudTopology::merge({&aws, &azure});
     }},
};

// The app name is a std::string: gtest prints a const char* parameter
// with its address.
using MapperAppCase = std::tuple<MapperCase, std::string>;

// A deployment case is its index into kDeployments.
using MapperDeploymentCase = std::tuple<MapperCase, int>;

// Without a printer gtest dumps a parameter's bytes, and a MapperCase
// starts with its name's heap pointer: the test names in gtest's listing
// would move with the heap layout of the test binary. Both matrices
// print their cases by name.
void PrintTo(const MapperAppCase& app_case, std::ostream* os) {
  *os << '(' << std::get<0>(app_case).name << ", "
      << ::testing::PrintToString(std::get<1>(app_case)) << ')';
}

void PrintTo(const MapperDeploymentCase& deployment_case, std::ostream* os) {
  *os << '(' << std::get<0>(deployment_case).name << ", "
      << std::get<1>(deployment_case) << ')';
}

class MapperAppMatrix : public ::testing::TestWithParam<MapperAppCase> {};

// Every mapper handles every workload's pattern on the 4-region cloud
// with pins, producing feasible mappings; optimizers beat random.
TEST_P(MapperAppMatrix, FeasibleOnEveryWorkloadPattern) {
  const auto& [mapper_case, app_name] = GetParam();
  const apps::App& app = apps::app_by_name(app_name);
  const int ranks = 24;

  const net::CloudTopology topo(net::aws_experiment_profile(ranks / 4 + 1));
  mapping::MappingProblem problem;
  problem.comm = app.synthetic_pattern(ranks, app.default_config(ranks));
  problem.network = net::NetworkModel::from_ground_truth(topo);
  problem.capacities = topo.capacities();
  problem.site_coords = topo.coordinates();
  Rng rng(7);
  problem.constraints =
      mapping::make_random_constraints(ranks, problem.capacities, 0.2, rng);
  problem.validate();

  auto mapper = mapper_case.make();
  const mapping::MapperRun run = mapping::run_mapper(*mapper, problem);
  EXPECT_GT(run.cost, 0.0);

  if (mapper_case.optimizing) {
    Rng brng(13);
    RunningStats base;
    const mapping::CostEvaluator eval(problem);
    for (int t = 0; t < 10; ++t)
      base.add(eval.total_cost(mapping::RandomMapper::draw(problem, brng)));
    EXPECT_LT(run.cost, base.mean() * 1.02)
        << mapper_case.name << " on " << app_name
        << " lost to the random average";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MapperAppMatrix,
    ::testing::Combine(::testing::ValuesIn(kMappers),
                       ::testing::Values("BT", "SP", "LU", "K-means", "DNN",
                                         "CG", "MG", "FT")),
    [](const ::testing::TestParamInfo<MapperAppMatrix::ParamType>& test) {
      std::string app = std::get<1>(test.param);
      for (auto& ch : app)
        if (ch == '-') ch = '_';
      return std::get<0>(test.param).name + "_" + app;
    });

class MapperDeploymentMatrix
    : public ::testing::TestWithParam<MapperDeploymentCase> {};

// Every mapper handles every deployment shape (including multi-cloud and
// many-site synthetic worlds) and is deterministic across repeat calls.
TEST_P(MapperDeploymentMatrix, FeasibleAndDeterministicEverywhere) {
  const auto& [mapper_case, deployment_idx] = GetParam();
  const DeploymentCase& deployment =
      kDeployments[static_cast<std::size_t>(deployment_idx)];
  const net::CloudTopology topo = deployment.make();
  const int ranks = topo.total_nodes() * 3 / 4;

  Rng rng(5);
  mapping::MappingProblem problem;
  problem.comm = testutil::random_comm(ranks, 4, rng);
  problem.network =
      net::Calibrator().calibrate(topo).model;  // calibrated view
  problem.capacities = topo.capacities();
  problem.site_coords = topo.coordinates();
  problem.validate();

  auto mapper = mapper_case.make();
  const mapping::MapperRun first = mapping::run_mapper(*mapper, problem);
  auto mapper_again = mapper_case.make();
  const mapping::MapperRun second =
      mapping::run_mapper(*mapper_again, problem);
  EXPECT_EQ(first.mapping, second.mapping)
      << mapper_case.name << " on " << deployment.name
      << " is not deterministic";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MapperDeploymentMatrix,
    ::testing::Combine(::testing::ValuesIn(kMappers),
                       ::testing::Range(0, 4)),
    [](const ::testing::TestParamInfo<MapperDeploymentMatrix::ParamType>&
           test) {
      return std::get<0>(test.param).name + "_" +
             kDeployments[static_cast<std::size_t>(std::get<1>(test.param))]
                 .name;
    });

}  // namespace
}  // namespace geomap

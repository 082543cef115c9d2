// Cross-module integration tests: profiled runs match synthetic patterns,
// the full pipeline beats the baseline, and optimized mappings speed up
// real (virtual-time) executions.

#include <gtest/gtest.h>

#include "apps/app.h"
#include "core/geodist_mapper.h"
#include "core/pipeline.h"
#include "mapping/cost.h"
#include "mapping/greedy_mapper.h"
#include "mapping/random_mapper.h"
#include "net/calibration.h"
#include "net/cloud.h"
#include "runtime/comm.h"
#include "test_util.h"

namespace geomap {
namespace {

trace::CommMatrix profile_app(const apps::App& app, const apps::AppConfig& cfg,
                              const net::NetworkModel& model) {
  trace::ApplicationProfile profile(cfg.num_ranks);
  Mapping trivial(static_cast<std::size_t>(cfg.num_ranks), 0);
  runtime::Runtime rt(model, trivial, 50.0, &profile);
  rt.run([&](runtime::Comm& comm) { (void)app.run(comm, cfg); });
  return profile.build_comm_matrix();
}

// The deterministic apps' synthetic patterns must equal what profiling an
// actual execution captures (K-means repartitions are data-dependent and
// are excluded by design).
class ProfiledVsSynthetic : public ::testing::TestWithParam<const char*> {};

TEST_P(ProfiledVsSynthetic, PatternsAgreeEdgeForEdge) {
  const apps::App& app = apps::app_by_name(GetParam());
  apps::AppConfig cfg = app.default_config(16);
  cfg.iterations = 4;
  cfg.payload_scale = 0.05;

  const net::CloudTopology topo(net::aws_experiment_profile(4));
  const net::NetworkModel model = net::NetworkModel::from_ground_truth(topo);
  const trace::CommMatrix profiled = profile_app(app, cfg, model);
  const trace::CommMatrix synthetic = app.synthetic_pattern(16, cfg);

  ASSERT_EQ(profiled.nnz(), synthetic.nnz());
  const auto pe = profiled.edges();
  const auto se = synthetic.edges();
  for (std::size_t i = 0; i < pe.size(); ++i) {
    EXPECT_EQ(pe[i].src, se[i].src) << i;
    EXPECT_EQ(pe[i].dst, se[i].dst) << i;
    EXPECT_NEAR(pe[i].volume, se[i].volume, 1e-6) << pe[i].src << "->"
                                                  << pe[i].dst;
    EXPECT_NEAR(pe[i].count, se[i].count, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, ProfiledVsSynthetic,
                         ::testing::Values("LU", "BT", "SP", "DNN"));

TEST(Integration, KmeansProfiledPatternIsComplex) {
  const apps::App& km = apps::app_by_name("K-means");
  apps::AppConfig cfg = km.default_config(16);
  cfg.iterations = 3;
  cfg.problem_size = 128;
  const net::CloudTopology topo(net::aws_experiment_profile(4));
  const trace::CommMatrix profiled =
      profile_app(km, cfg, net::NetworkModel::from_ground_truth(topo));
  // Beyond the collective trees: repartition edges connect many pairs.
  EXPECT_GT(profiled.nnz(), 16u * 5u);
}

TEST(Integration, PipelineBeatsBaselineOnEveryApp) {
  const net::CloudTopology topo(net::aws_experiment_profile(4));
  const net::NetworkModel truth = net::NetworkModel::from_ground_truth(topo);
  for (const apps::App* app : apps::all_apps()) {
    apps::AppConfig cfg = app->default_config(16);
    cfg.iterations = 4;
    trace::CommMatrix comm = profile_app(*app, cfg, truth);

    core::Pipeline pipeline;
    const core::PipelineResult result = pipeline.execute(topo, comm);

    mapping::RandomMapper baseline(1);
    const mapping::MappingProblem problem =
        core::make_problem(topo, result.calibration.model, std::move(comm));
    const mapping::MapperRun base = mapping::run_mapper(baseline, problem);
    EXPECT_LT(result.run.cost, base.cost) << app->name();
  }
}

TEST(Integration, OptimizedMappingSpeedsUpVirtualExecution) {
  const apps::App& lu = apps::app_by_name("LU");
  apps::AppConfig cfg = lu.default_config(16);
  cfg.iterations = 6;

  const net::CloudTopology topo(net::aws_experiment_profile(4));
  const net::CalibrationResult calib = net::Calibrator().calibrate(topo);
  const trace::CommMatrix comm = profile_app(lu, cfg, calib.model);
  const mapping::MappingProblem problem =
      core::make_problem(topo, calib.model, comm);

  core::GeoDistMapper geo;
  mapping::RandomMapper baseline(3);
  const Mapping geo_map = geo.map(problem);
  const Mapping base_map = baseline.map(problem);

  auto run_makespan = [&](const Mapping& m) {
    runtime::Runtime rt(calib.model, m, topo.instance().gflops);
    return rt.run([&](runtime::Comm& c) { (void)lu.run(c, cfg); }).makespan;
  };
  EXPECT_LT(run_makespan(geo_map), run_makespan(base_map));
}

TEST(Integration, AnalyticCostTracksRuntimeCommTimeOrdering) {
  // Across several mappings, the analytic alpha-beta cost and the
  // runtime's measured communication time must order mappings the same
  // way (Spearman-like check on 3 mappings).
  const apps::App& lu = apps::app_by_name("LU");
  apps::AppConfig cfg = lu.default_config(16);
  cfg.iterations = 4;

  const net::CloudTopology topo(net::aws_experiment_profile(4));
  const net::NetworkModel model = net::NetworkModel::from_ground_truth(topo);
  const trace::CommMatrix comm = profile_app(lu, cfg, model);
  const mapping::MappingProblem problem = core::make_problem(topo, model, comm);

  core::GeoDistMapper geo;
  mapping::GreedyMapper greedy;
  mapping::RandomMapper baseline(17);
  const std::vector<Mapping> mappings = {geo.map(problem),
                                         greedy.map(problem),
                                         baseline.map(problem)};
  std::vector<double> analytic, measured;
  for (const Mapping& m : mappings) {
    analytic.push_back(mapping::alpha_beta_cost(comm, model, m));
    runtime::Runtime rt(model, m, topo.instance().gflops);
    measured.push_back(
        rt.run([&](runtime::Comm& c) { (void)lu.run(c, cfg); }).makespan);
  }
  // geo <= greedy <= baseline in both metrics.
  EXPECT_LE(analytic[0], analytic[1]);
  EXPECT_LE(analytic[1], analytic[2] * 1.05);
  EXPECT_LE(measured[0], measured[1] * 1.05);
  EXPECT_LE(measured[1], measured[2] * 1.05);
}

}  // namespace
}  // namespace geomap

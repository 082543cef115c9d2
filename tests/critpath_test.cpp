// Critical-path analysis tests: hand-built happened-before DAGs with
// known longest paths, degenerate inputs, the telescoping invariant
// (path components re-fold to the makespan) against both execution
// engines, canonicalization, the JSON round-trip, and byte-stable
// artifacts across identical seeded runs.

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app.h"
#include "common/json_reader.h"
#include "common/rng.h"
#include "core/geodist_mapper.h"
#include "fault/degraded_network.h"
#include "fault/fault_plan.h"
#include "mapping/problem.h"
#include "mapping/random_mapper.h"
#include "net/calibration.h"
#include "net/cloud.h"
#include "obs/collector.h"
#include "runtime/comm.h"
#include "sim/netsim.h"
#include "trace/profile.h"

namespace geomap {
namespace {

// All hand-built test values are dyadic rationals (multiples of 1/8) so
// every sum below is exact in binary floating point: the telescoping
// identity can be asserted with EXPECT_DOUBLE_EQ, no tolerance.
obs::CritEvent make_event(std::int64_t id, int rank, Seconds ready,
                          Seconds start, Seconds end) {
  obs::CritEvent e;
  e.id = id;
  e.seq = id;  // good enough for single-rank-order tests
  e.kind = "recv";
  e.rank = rank;
  e.ready = ready;
  e.start = start;
  e.end = end;
  return e;
}

Seconds wire(const obs::CritEvent& e) {
  return e.alpha_seconds + e.beta_seconds + e.fault_stall_seconds +
         e.contention_stall_seconds;
}

TEST(CritPath, EmptyEventsYieldEmptyPath) {
  const obs::CriticalPath path = obs::extract_critical_path({});
  EXPECT_DOUBLE_EQ(path.makespan, 0.0);
  EXPECT_DOUBLE_EQ(path.path_seconds, 0.0);
  EXPECT_TRUE(path.steps.empty());
  EXPECT_TRUE(path.by_pair.empty());
  EXPECT_TRUE(path.by_rank.empty());
}

TEST(CritPath, SerialChainTelescopesExactly) {
  // rank 0 receives at t=1, rank 1 receives the causally dependent
  // message at t=2. Known longest (indeed only) path: e0 -> e1.
  obs::CritEvent e0 = make_event(0, 0, 0.0, 0.5, 1.0);
  e0.peer = 1;
  e0.src_site = 0;
  e0.dst_site = 1;
  e0.alpha_seconds = 0.125;
  e0.beta_seconds = 0.25;
  e0.contention_stall_seconds = 0.125;
  obs::CritEvent e1 = make_event(1, 1, 1.0, 1.25, 2.0);
  e1.peer = 0;
  e1.src_site = 1;
  e1.dst_site = 0;
  e1.alpha_seconds = 0.25;
  e1.beta_seconds = 0.25;
  e1.fault_stall_seconds = 0.25;
  e1.contention_stall_seconds = 0.25;
  e1.pred_message = 0;

  const obs::CriticalPath path = obs::extract_critical_path({e0, e1});
  EXPECT_DOUBLE_EQ(path.makespan, 2.0);
  ASSERT_EQ(path.steps.size(), 2u);
  EXPECT_EQ(path.steps[0].event.id, 0);
  EXPECT_EQ(path.steps[1].event.id, 1);
  // Step 0 spans [origin, e0.end]: 0.5 wire + 0.5 startup gap on rank 0.
  EXPECT_DOUBLE_EQ(path.steps[0].local_gap, 1.0 - wire(e0));
  EXPECT_EQ(path.steps[0].gap_rank, 0);
  // Step 1 spans [e0.end, e1.end] and is pure wire time.
  EXPECT_DOUBLE_EQ(path.steps[1].local_gap, 0.0);

  // The decomposition telescopes exactly (dyadic inputs).
  EXPECT_DOUBLE_EQ(path.path_seconds, path.makespan);
  EXPECT_DOUBLE_EQ(path.totals.total(), path.makespan);
  EXPECT_DOUBLE_EQ(path.totals.alpha, 0.375);
  EXPECT_DOUBLE_EQ(path.totals.beta, 0.5);
  EXPECT_DOUBLE_EQ(path.totals.contention_stall, 0.375);
  EXPECT_DOUBLE_EQ(path.totals.fault_stall, 0.25);
  EXPECT_DOUBLE_EQ(path.totals.local, 0.5);

  // Both site pairs and both ranks appear; equal totals tie-break by
  // ascending site / rank.
  ASSERT_EQ(path.by_pair.size(), 2u);
  EXPECT_EQ(path.by_pair[0].src_site, 0);
  EXPECT_EQ(path.by_pair[0].dst_site, 1);
  ASSERT_EQ(path.by_rank.size(), 2u);
  EXPECT_EQ(path.by_rank[0].rank, 0);
  EXPECT_DOUBLE_EQ(path.by_rank[0].components.total(), 1.0);
  EXPECT_DOUBLE_EQ(path.by_rank[1].components.total(), 1.0);
  EXPECT_DOUBLE_EQ(path.by_rank[0].components.local, 0.5);
}

TEST(CritPath, BindingPredecessorIsTheLaterFinisher) {
  // c waits on both its program predecessor a (ends 1.0) and a message
  // from b (ends 3.0): the message bound c's readiness, so the path is
  // b -> c and a stays off it.
  obs::CritEvent a = make_event(0, 0, 0.0, 0.0, 1.0);
  obs::CritEvent b = make_event(1, 1, 0.0, 0.0, 3.0);
  obs::CritEvent c = make_event(2, 0, 3.0, 3.0, 4.0);
  c.pred_program = 0;
  c.pred_message = 1;
  {
    const obs::CriticalPath path = obs::extract_critical_path({a, b, c});
    ASSERT_EQ(path.steps.size(), 2u);
    EXPECT_EQ(path.steps[0].event.id, 1);
    EXPECT_EQ(path.steps[1].event.id, 2);
    EXPECT_DOUBLE_EQ(path.path_seconds, path.makespan);
  }
  // Swap the finish times: now the program predecessor binds.
  a.end = 3.0;
  b.end = 1.0;
  c.pred_program = 0;
  c.pred_message = 1;
  {
    const obs::CriticalPath path = obs::extract_critical_path({a, b, c});
    ASSERT_EQ(path.steps.size(), 2u);
    EXPECT_EQ(path.steps[0].event.id, 0);
    EXPECT_DOUBLE_EQ(path.path_seconds, path.makespan);
  }
}

TEST(CritPath, SingleFinishEventIsAllLocal) {
  obs::CritEvent e = make_event(0, 0, 5.0, 5.0, 5.0);
  e.kind = "finish";
  const obs::CriticalPath path = obs::extract_critical_path({e});
  EXPECT_DOUBLE_EQ(path.makespan, 5.0);
  ASSERT_EQ(path.steps.size(), 1u);
  EXPECT_DOUBLE_EQ(path.totals.local, 5.0);
  EXPECT_DOUBLE_EQ(path.path_seconds, path.makespan);

  // A nonzero origin anchors the chain start: only the time after the
  // origin is attributed.
  const obs::CriticalPath offset = obs::extract_critical_path({e}, 2.0);
  EXPECT_DOUBLE_EQ(offset.makespan, 3.0);
  EXPECT_DOUBLE_EQ(offset.totals.local, 3.0);
  EXPECT_DOUBLE_EQ(offset.path_seconds, offset.makespan);
}

TEST(CritPath, OutageOnlyEventAttributesFaultStall) {
  // One transfer that spent nearly its whole life stalled by an outage.
  obs::CritEvent e = make_event(0, 0, 0.0, 4.0, 5.0);
  e.src_site = 0;
  e.dst_site = 1;
  e.fault_stall_seconds = 4.0;  // the stall [ready, start]
  e.alpha_seconds = 0.5;
  e.beta_seconds = 0.5;
  const obs::CriticalPath path = obs::extract_critical_path({e});
  EXPECT_DOUBLE_EQ(path.makespan, 5.0);
  EXPECT_DOUBLE_EQ(path.totals.fault_stall, 4.0);
  EXPECT_DOUBLE_EQ(path.totals.local, 0.0);
  EXPECT_DOUBLE_EQ(path.path_seconds, path.makespan);
}

TEST(CritPath, CanonicalEventsSortRenumberAndRemapPreds) {
  obs::CritGraph graph;
  const int run0 = graph.begin_run("first");
  const int run1 = graph.begin_run("second", 10.0);

  // Arrival order deliberately scrambled across ranks and runs.
  obs::CritEvent b = make_event(graph.next_id(), 1, 0.0, 0.0, 1.0);
  b.run = run0;
  b.seq = 0;
  obs::CritEvent other = make_event(graph.next_id(), 0, 10.0, 10.0, 11.0);
  other.run = run1;
  other.seq = 0;
  obs::CritEvent a = make_event(graph.next_id(), 0, 0.0, 0.0, 2.0);
  a.run = run0;
  a.seq = 0;
  a.pred_message = b.id;      // cross-rank, same run: must be remapped
  a.pred_program = other.id;  // different run: dangling, must become -1
  graph.add(b);
  graph.add(other);
  graph.add(a);

  const std::vector<obs::CritEvent> canon = graph.canonical_events(run0);
  ASSERT_EQ(canon.size(), 2u);
  // Sorted by (rank, seq) and renumbered densely from 0.
  EXPECT_EQ(canon[0].rank, 0);
  EXPECT_EQ(canon[0].id, 0);
  EXPECT_EQ(canon[1].rank, 1);
  EXPECT_EQ(canon[1].id, 1);
  // rank 0's message pred now points at rank 1's canonical id; the
  // cross-run program pred is dangling.
  EXPECT_EQ(canon[0].pred_message, 1);
  EXPECT_EQ(canon[0].pred_program, -1);

  const std::vector<obs::CritGraph::Run> runs = graph.runs();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].label, "first");
  EXPECT_DOUBLE_EQ(runs[1].origin, 10.0);
}

// ---------------------------------------------------------------------------
// The telescoping invariant against the real engines.

mapping::MappingProblem sim_problem(int ranks) {
  const net::CloudTopology topo(net::aws_experiment_profile(ranks / 4));
  const net::CalibrationResult calib = net::Calibrator().calibrate(topo);
  const apps::App& app = apps::app_by_name("K-means");
  Rng rng(7);
  mapping::MappingProblem problem;
  problem.comm = app.synthetic_pattern(ranks, app.default_config(ranks));
  problem.network = calib.model;
  problem.capacities = topo.capacities();
  problem.site_coords = topo.coordinates();
  problem.constraints =
      mapping::make_random_constraints(ranks, problem.capacities, 0.2, rng);
  problem.validate();
  return problem;
}

void expect_refolds(const obs::CriticalPath& path, Seconds makespan) {
  EXPECT_DOUBLE_EQ(path.makespan, makespan);
  // Reassociation only: the step components are the same addends the
  // engine summed, folded in chain order.
  EXPECT_NEAR(path.path_seconds, path.makespan,
              1e-9 * std::max(1.0, path.makespan));
  EXPECT_NEAR(path.totals.total(), path.makespan,
              1e-9 * std::max(1.0, path.makespan));
}

TEST(CritPath, FaultedRuntimeRunRefoldsToMakespan) {
  const net::CloudTopology topo(net::aws_experiment_profile(2));
  const net::CalibrationResult calib = net::Calibrator().calibrate(topo);
  const Mapping mapping{0, 1, 2, 3};  // one rank per site: reproducible
  fault::FaultPlan plan(2017);
  plan.add_message_loss(0, 1, 0.0, fault::kNoEnd, 0.3);
  plan.add_site_outage(2, 0.01, 0.05);

  obs::Collector collector;
  runtime::Runtime rt(calib.model, mapping, topo.instance().gflops);
  rt.set_fault_plan(&plan);
  rt.set_collector(&collector);
  const apps::App& app = apps::app_by_name("K-means");
  const apps::AppConfig cfg = app.default_config(rt.num_ranks());
  const runtime::RunResult result =
      rt.run([&](runtime::Comm& c) { (void)app.run(c, cfg); });

  const std::vector<obs::CritGraph::Run> runs = collector.critpath().runs();
  ASSERT_EQ(runs.size(), 1u);
  const obs::CriticalPath path = obs::extract_critical_path(
      collector.critpath().canonical_events(runs[0].id), runs[0].origin);
  expect_refolds(path, result.makespan);
  EXPECT_GT(result.total_retries, 0u);  // the plan must actually bite
  EXPECT_GT(path.totals.fault_stall, 0.0);
  EXPECT_GT(path.totals.alpha + path.totals.beta, 0.0);
  EXPECT_FALSE(path.by_pair.empty());
}

TEST(CritPath, SimReplayRefoldsToMakespan) {
  const mapping::MappingProblem problem = sim_problem(32);
  Rng rng(3);
  const Mapping m = mapping::RandomMapper::draw(problem, rng);
  obs::Collector collector;
  const sim::ContentionResult result = sim::replay_with_contention(
      problem.comm, problem.network, m, &collector, "test/replay");

  const std::vector<obs::CritGraph::Run> runs = collector.critpath().runs();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].label, "test/replay");
  const obs::CriticalPath path = obs::extract_critical_path(
      collector.critpath().canonical_events(runs[0].id), runs[0].origin);
  expect_refolds(path, result.makespan);
  // A 32-rank replay over serializing WAN links must see queueing.
  EXPECT_GT(path.totals.contention_stall, 0.0);
  EXPECT_DOUBLE_EQ(path.totals.fault_stall, 0.0);  // fault-free overload
}

TEST(CritPath, FaultReplayOriginAnchorsPath) {
  const mapping::MappingProblem problem = sim_problem(32);
  Rng rng(3);
  const Mapping m = mapping::RandomMapper::draw(problem, rng);
  fault::FaultPlan plan(2017);
  plan.add_site_degradation(0, 0.0, fault::kNoEnd, 0.5);
  plan.add_site_outage(1, 5.001, 5.01);  // temporary: replay stalls across
  const fault::DegradedNetworkModel degraded(problem.network, plan);

  obs::Collector collector;
  const Seconds start_time = 5.0;
  const sim::ContentionResult result = sim::replay_with_contention(
      problem.comm, degraded, m, start_time, &collector, "test/faulted");

  const std::vector<obs::CritGraph::Run> runs = collector.critpath().runs();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_DOUBLE_EQ(runs[0].origin, start_time);
  const obs::CriticalPath path = obs::extract_critical_path(
      collector.critpath().canonical_events(runs[0].id), runs[0].origin);
  // The acceptance invariant: alpha+beta+stalls+local re-folds to the
  // replay's reported makespan (a duration — already origin-relative).
  expect_refolds(path, result.makespan);
  // Degradation excess over the healthy wire lands in fault stall.
  EXPECT_GT(path.totals.fault_stall, 0.0);
}

// ---------------------------------------------------------------------------
// Export round-trip and byte stability.

TEST(CritPath, JsonRoundTripPreservesAnalysis) {
  const mapping::MappingProblem problem = sim_problem(16);
  Rng rng(5);
  const Mapping m = mapping::RandomMapper::draw(problem, rng);
  obs::Collector collector;
  (void)sim::replay_with_contention(problem.comm, problem.network, m,
                                    &collector, "test/roundtrip");
  std::ostringstream os;
  collector.write_critpath_json(os);

  const JsonValue doc = parse_json(os.str());
  const JsonValue& run = doc.at("runs").items().at(0);
  const std::vector<obs::CritEvent> parsed =
      obs::critpath_events_from_json(run.at("events"));
  const obs::CriticalPath reloaded =
      obs::extract_critical_path(parsed, run.number_or("origin", 0));

  const std::vector<obs::CritGraph::Run> runs = collector.critpath().runs();
  const obs::CriticalPath direct = obs::extract_critical_path(
      collector.critpath().canonical_events(runs[0].id), runs[0].origin);
  // The exporter's own analysis block matches what the reloaded events
  // reproduce (doubles survive the JSON round-trip exactly).
  EXPECT_DOUBLE_EQ(reloaded.makespan, direct.makespan);
  EXPECT_DOUBLE_EQ(reloaded.path_seconds, direct.path_seconds);
  EXPECT_EQ(reloaded.steps.size(), direct.steps.size());
  EXPECT_DOUBLE_EQ(reloaded.totals.alpha, direct.totals.alpha);
  EXPECT_DOUBLE_EQ(reloaded.totals.beta, direct.totals.beta);
  EXPECT_DOUBLE_EQ(reloaded.totals.contention_stall,
                   direct.totals.contention_stall);
  EXPECT_DOUBLE_EQ(reloaded.totals.fault_stall, direct.totals.fault_stall);
  EXPECT_DOUBLE_EQ(reloaded.totals.local, direct.totals.local);
  const JsonValue& analysis = run.at("analysis");
  EXPECT_DOUBLE_EQ(analysis.at("makespan_seconds").as_number(),
                   direct.makespan);
  EXPECT_DOUBLE_EQ(analysis.at("path_seconds").as_number(),
                   direct.path_seconds);
}

// One full instrumented workload: mapper audit + contention replay +
// a faulted threaded runtime run, all into one collector with a pinned
// metadata header. Returns the three canonical-export artifacts.
struct Artifacts {
  std::string metrics;
  std::string audit;
  std::string critpath;
};

Artifacts run_workload_once() {
  obs::Collector collector;
  collector.set_meta(obs::make_run_meta("determinism_test", 7, true));

  const mapping::MappingProblem problem = sim_problem(32);
  core::GeoDistMapper mapper;
  mapper.set_collector(&collector);
  const Mapping mapped = mapper.map(problem);
  (void)sim::replay_with_contention(problem.comm, problem.network, mapped,
                                    &collector, "test/replay");

  const net::CloudTopology topo(net::aws_experiment_profile(2));
  const net::CalibrationResult calib = net::Calibrator().calibrate(topo);
  const Mapping one_per_site{0, 1, 2, 3};
  fault::FaultPlan plan(2017);
  plan.add_message_loss(0, 1, 0.0, fault::kNoEnd, 0.3);
  plan.add_site_outage(2, 0.01, 0.05);
  runtime::Runtime rt(calib.model, one_per_site, topo.instance().gflops);
  rt.set_fault_plan(&plan);
  rt.set_collector(&collector);
  const apps::App& app = apps::app_by_name("K-means");
  const apps::AppConfig cfg = app.default_config(rt.num_ranks());
  (void)rt.run([&](runtime::Comm& c) { (void)app.run(c, cfg); });

  Artifacts a;
  std::ostringstream metrics, audit, critpath;
  collector.write_metrics_json(metrics);
  collector.write_audit_json(audit);
  collector.write_critpath_json(critpath);
  a.metrics = metrics.str();
  a.audit = audit.str();
  a.critpath = critpath.str();
  return a;
}

TEST(CritPath, IdenticalSeededRunsProduceByteIdenticalArtifacts) {
  // Pin the environment-dependent metadata fields the way CI and the
  // baseline workflow do, so the whole file — header included — must
  // match byte for byte. Thread scheduling may reorder event arrival;
  // canonicalization has to absorb that.
  ASSERT_EQ(setenv("GEOMAP_TIMESTAMP", "2026-01-01T00:00:00Z", 1), 0);
  ASSERT_EQ(setenv("GEOMAP_GIT_DESCRIBE", "test-pinned", 1), 0);
  const Artifacts first = run_workload_once();
  const Artifacts second = run_workload_once();
  unsetenv("GEOMAP_TIMESTAMP");
  unsetenv("GEOMAP_GIT_DESCRIBE");
  EXPECT_EQ(first.metrics, second.metrics);
  EXPECT_EQ(first.audit, second.audit);
  EXPECT_EQ(first.critpath, second.critpath);
  EXPECT_NE(first.critpath.find("\"determinism_test\""), std::string::npos);
  EXPECT_NE(first.critpath.find("test-pinned"), std::string::npos);
  EXPECT_NE(first.metrics.find("2026-01-01T00:00:00Z"), std::string::npos);
}

}  // namespace
}  // namespace geomap

// The phase profiler + memory accounting contracts: the telescoping
// invariant (exclusive times re-fold to the root's measured wall), merged
// nesting, deterministic byte-identical exports, collapsed-stack output,
// the MemTracker ledger/note semantics, batch-record equivalence, the
// mapper progress heartbeat, and the forensic-recorder opt-outs staying
// observation-only.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/app.h"
#include "common/json_reader.h"
#include "common/rng.h"
#include "core/geodist_mapper.h"
#include "mapping/greedy_mapper.h"
#include "mapping/mpipp_mapper.h"
#include "mapping/problem.h"
#include "mapping/random_mapper.h"
#include "net/calibration.h"
#include "net/cloud.h"
#include "obs/collector.h"
#include "sim/netsim.h"

using namespace geomap;

namespace {

mapping::MappingProblem profile_test_problem(int ranks) {
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

// Sum of exclusive times over the whole tree; with the root's inclusive
// defined as the top-level sum, this telescopes to the root wall exactly.
double sum_exclusive(const obs::PhaseSnapshot& node) {
  double total = node.exclusive_seconds();
  for (const obs::PhaseSnapshot& c : node.children) total += sum_exclusive(c);
  return total;
}

void check_nesting(const obs::PhaseSnapshot& node) {
  double children_wall = 0;
  for (const obs::PhaseSnapshot& c : node.children) {
    children_wall += c.wall_seconds;
    check_nesting(c);
  }
  // Child phases open and close inside their parent, so the children's
  // inclusive sum can never exceed the parent's (non-negative exclusive).
  EXPECT_GE(node.exclusive_seconds(), -1e-9)
      << "negative exclusive time at phase " << node.name;
  EXPECT_LE(children_wall, node.wall_seconds + 1e-9) << node.name;
}

const obs::PhaseSnapshot* find_child(const obs::PhaseSnapshot& node,
                                     const std::string& name) {
  for (const obs::PhaseSnapshot& c : node.children)
    if (c.name == name) return &c;
  return nullptr;
}

TEST(PhaseProfiler, ExclusiveTimesTelescopeToRootWall) {
  obs::PhaseProfiler profiler;
  {
    obs::Phase outer = profiler.phase("outer");
    {
      obs::Phase inner = profiler.phase("inner");
      obs::Phase leaf = profiler.phase("leaf");
    }
    obs::Phase sibling = profiler.phase("sibling");
  }
  { obs::Phase outer = profiler.phase("outer"); }  // merges, calls = 2

  const obs::PhaseSnapshot root = profiler.snapshot();
  EXPECT_EQ(root.name, "run");
  check_nesting(root);
  EXPECT_NEAR(sum_exclusive(root), root.wall_seconds,
              1e-9 + 1e-9 * root.wall_seconds);

  ASSERT_EQ(root.children.size(), 1u);
  const obs::PhaseSnapshot& outer = root.children[0];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.calls, 2u);  // repeated entry merged into one node
  ASSERT_NE(find_child(outer, "inner"), nullptr);
  ASSERT_NE(find_child(outer, "sibling"), nullptr);
  const obs::PhaseSnapshot& inner = *find_child(outer, "inner");
  ASSERT_NE(find_child(inner, "leaf"), nullptr);  // nests under inner
  EXPECT_EQ(find_child(root, "inner"), nullptr);  // not at top level
}

TEST(PhaseProfiler, CountersAttachToTheOwningPhaseFromAnyThread) {
  obs::PhaseProfiler profiler;
  {
    obs::Phase parallel = profiler.phase("parallel-region");
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([&parallel] {
        for (int i = 0; i < 100; ++i) parallel.count("work_items");
      });
    }
    for (std::thread& w : workers) w.join();
  }
  const obs::PhaseSnapshot root = profiler.snapshot();
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0].counters.at("work_items"), 400u);
  // Worker threads never opened phases: the tree shape is exactly one
  // node regardless of scheduling.
  EXPECT_TRUE(root.children[0].children.empty());
}

TEST(PhaseProfiler, MovedHandleClosesOnce) {
  obs::PhaseProfiler profiler;
  {
    obs::Phase p;
    EXPECT_FALSE(p.active());
    p = profiler.phase("moved");
    EXPECT_TRUE(p.active());
    obs::Phase q = std::move(p);
    EXPECT_FALSE(p.active());
    q.end();
    q.end();  // second end is a no-op
  }
  const obs::PhaseSnapshot root = profiler.snapshot();
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0].calls, 1u);
}

TEST(PhaseProfiler, DeterministicProfileJsonIsByteIdentical) {
  const mapping::MappingProblem problem = profile_test_problem(32);
  const auto run_once = [&problem]() {
    obs::Collector collector;
    collector.profile().set_deterministic(true);
    collector.mem().set_deterministic(true);
    core::GeoDistMapper geo;
    geo.set_collector(&collector);
    (void)geo.map(problem);
    std::ostringstream profile, collapsed;
    collector.write_profile_json(profile);
    collector.write_profile_collapsed(collapsed);
    return std::make_pair(profile.str(), collapsed.str());
  };
  const auto [profile_a, collapsed_a] = run_once();
  const auto [profile_b, collapsed_b] = run_once();
  EXPECT_EQ(profile_a, profile_b);
  EXPECT_EQ(collapsed_a, collapsed_b);

  // Deterministic exports zero every clock but keep the structure: the
  // collapsed view falls back to call-count weights so it still renders.
  EXPECT_NE(profile_a.find("\"mapper:Geo-distributed\""), std::string::npos);
  EXPECT_NE(profile_a.find("\"wall_seconds\": 0.0,"), std::string::npos);
  EXPECT_NE(collapsed_a.find("run;mapper:Geo-distributed"),
            std::string::npos);

  // And the document parses as JSON with the expected top-level members.
  const JsonValue doc = parse_json(profile_a);
  ASSERT_TRUE(doc.is_object());
  EXPECT_NE(doc.find("tree"), nullptr);
  EXPECT_NE(doc.find("memory"), nullptr);
  const JsonValue* det = doc.find("deterministic");
  ASSERT_NE(det, nullptr);
  EXPECT_TRUE(det->as_bool());
}

TEST(PhaseProfiler, MapperPhaseCarriesWorkCountersAndMemoryAccounts) {
  const mapping::MappingProblem problem = profile_test_problem(32);
  obs::Collector collector;
  core::GeoDistMapper geo;
  geo.set_collector(&collector);
  (void)geo.map(problem);

  const obs::PhaseSnapshot root = collector.profile().snapshot();
  const obs::PhaseSnapshot* mapper =
      find_child(root, "mapper:Geo-distributed");
  ASSERT_NE(mapper, nullptr);
  const obs::PhaseSnapshot* search = find_child(*mapper, "order-search");
  ASSERT_NE(search, nullptr);
  EXPECT_EQ(search->counters.at("orders_enumerated"), 24u);  // 4! orders
  EXPECT_EQ(search->counters.at("cost_evals"), 24u);
  // Each prefix of the 4-level order tree is filled once:
  // 4 + 12 + 24 + 24 group fills, whatever the worker count.
  EXPECT_EQ(search->counters.at("group_fills"), 64u);
  check_nesting(root);
  EXPECT_NEAR(sum_exclusive(root), root.wall_seconds,
              1e-9 + 1e-9 * root.wall_seconds);

  // The big structures were noted next to the phases that touched them.
  EXPECT_EQ(collector.mem().peak_bytes("comm.csr"),
            problem.comm.memory_bytes());
  EXPECT_GT(collector.mem().peak_bytes("network.dense"), 0u);
}

TEST(PhaseProfiler, ProgressHeartbeatReachesOneDeterministically) {
  const mapping::MappingProblem problem = profile_test_problem(32);
  obs::Collector collector;
  core::GeoDistOptions options;
  options.parallel_orders = true;
  core::GeoDistMapper geo(options);
  geo.set_collector(&collector);
  (void)geo.map(problem);
  // set_max keeps the exported gauge monotone under parallel evaluation:
  // the final value is exactly 1.0 no matter the completion order.
  EXPECT_EQ(collector.metrics().gauge("mapper.progress").value(), 1.0);
  const obs::TimeSeries* series = collector.timeline().find(
      "mapper.progress{orders}");
  ASSERT_NE(series, nullptr);
  const std::vector<obs::TimePoint> points = series->points();
  ASSERT_FALSE(points.empty());
  EXPECT_EQ(points.back().value, 1.0);
}

// ---------------------------------------------------------------------------
// MemTracker

TEST(MemTracker, ChargeReleaseLedgerTracksPeak) {
  obs::MemTracker mem;
  mem.charge("journal", 100);
  mem.charge("journal", 50);
  EXPECT_EQ(mem.current_bytes("journal"), 150u);
  EXPECT_EQ(mem.peak_bytes("journal"), 150u);
  mem.release("journal", 120);
  EXPECT_EQ(mem.current_bytes("journal"), 30u);
  EXPECT_EQ(mem.peak_bytes("journal"), 150u);  // peak is the high-water
  mem.release("journal", 1000);                // over-release clamps to 0
  EXPECT_EQ(mem.current_bytes("journal"), 0u);
}

TEST(MemTracker, NoteIsIdempotentObservedSize) {
  obs::MemTracker mem;
  mem.note("comm.csr", 4096);
  mem.note("comm.csr", 4096);  // same structure observed again
  EXPECT_EQ(mem.current_bytes("comm.csr"), 4096u);
  EXPECT_EQ(mem.peak_bytes("comm.csr"), 4096u);
  mem.note("comm.csr", 1024);  // smaller observation: current follows,
  EXPECT_EQ(mem.current_bytes("comm.csr"), 1024u);
  EXPECT_EQ(mem.peak_bytes("comm.csr"), 4096u);  // peak does not
}

TEST(MemTracker, ProcessRssReadableOnLinux) {
  // VmRSS/VmHWM come from /proc/self/status; a test binary with gtest
  // loaded is comfortably past a megabyte.
  EXPECT_GT(obs::MemTracker::process_rss_bytes(), 1u << 20);
  EXPECT_GE(obs::MemTracker::process_peak_rss_bytes(),
            obs::MemTracker::process_rss_bytes());
}

// ---------------------------------------------------------------------------
// Batch recording (the hot-loop flush path) is state-identical

TEST(Metrics, HistogramRecordManyMatchesSequentialRecords) {
  obs::Histogram one_by_one(8);  // small cap exercises the reservoir
  obs::Histogram batched(8);
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(0.25 * i);
  for (const double x : xs) one_by_one.record(x);
  batched.record_many(xs);
  EXPECT_EQ(one_by_one.samples(), batched.samples());
  const auto a = one_by_one.summary();
  const auto b = batched.summary();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.mean, b.mean);
}

TEST(Timeline, RecordManyMatchesSequentialRecords) {
  obs::TimeSeries one_by_one(16);  // small capacity forces eviction
  obs::TimeSeries batched(16);
  std::vector<obs::TimePoint> pts;
  Rng rng(3);
  for (int i = 0; i < 200; ++i)
    pts.push_back({static_cast<double>(rng.uniform_index(1000)), 1.0 * i});
  for (const obs::TimePoint& p : pts) one_by_one.record(p.t, p.value);
  batched.record_many(pts);
  EXPECT_EQ(one_by_one.points(), batched.points());
  EXPECT_EQ(one_by_one.total_recorded(), batched.total_recorded());
}

// ---------------------------------------------------------------------------
// Forensic-recorder opt-outs observe without perturbing

TEST(Collector, AuditOptOutKeepsMappingBitIdentical) {
  const mapping::MappingProblem problem = profile_test_problem(32);
  const Mapping plain = core::GeoDistMapper().map(problem);

  obs::Collector lean;
  lean.set_audit_enabled(false);
  core::GeoDistMapper geo;
  geo.set_collector(&lean);
  const Mapping observed = geo.map(problem);
  EXPECT_EQ(plain, observed);
  EXPECT_TRUE(lean.audit().empty());
  // The always-on set still recorded the search.
  EXPECT_EQ(lean.metrics().counter("mapper.orders_evaluated").value(), 24u);
  EXPECT_FALSE(lean.profile().empty());
}

TEST(Collector, CritpathOptOutKeepsReplayBitIdentical) {
  const mapping::MappingProblem problem = profile_test_problem(32);
  Rng rng(5);
  const Mapping m = mapping::RandomMapper::draw(problem, rng);
  const sim::ContentionResult plain =
      sim::replay_with_contention(problem.comm, problem.network, m);

  obs::Collector lean;
  lean.set_critpath_enabled(false);
  const sim::ContentionResult observed = sim::replay_with_contention(
      problem.comm, problem.network, m, &lean, "lean");
  EXPECT_EQ(plain.makespan, observed.makespan);
  EXPECT_EQ(plain.total_transfer_seconds, observed.total_transfer_seconds);
  EXPECT_EQ(plain.busiest_link_seconds, observed.busiest_link_seconds);
  EXPECT_TRUE(lean.critpath().runs().empty());
  // Timeline and metrics still observed the replay.
  EXPECT_GT(lean.metrics().counter("sim.edges_replayed").value(), 0u);
  EXPECT_FALSE(lean.timeline().empty());
}

}  // namespace

// Observability layer tests: metrics registry exactness under
// concurrency, span nesting and virtual-time export, Chrome trace JSON
// well-formedness, the mapper decision audit trail's cost decomposition,
// and the bit-identical-when-off contract across mapper / runtime / sim.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/app.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/geodist_mapper.h"
#include "core/pipeline.h"
#include "fault/fault_plan.h"
#include "mapping/cost.h"
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

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON validator (no external deps): accepts
// exactly the RFC 8259 grammar this layer emits. Enough to assert the
// exporters produce well-formed documents.
class JsonChecker {
 public:
  static bool valid(const std::string& text) {
    JsonChecker c(text);
    return c.value() && (c.skip_ws(), c.pos_ == text.size());
  }

 private:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r'))
      ++pos_;
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(const char* s) {
    const std::size_t n = std::string(s).size();
    if (text_.compare(pos_, n, s) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }
  bool string() {
    if (!eat('"')) return false;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    return pos_ < text_.size() && text_[pos_++] == '"';
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool value() {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }
  bool object() {
    if (!eat('{')) return false;
    if (eat('}')) return true;
    do {
      skip_ws();
      if (!string()) return false;
      if (!eat(':')) return false;
      if (!value()) return false;
    } while (eat(','));
    return eat('}');
  }
  bool array() {
    if (!eat('[')) return false;
    if (eat(']')) return true;
    do {
      if (!value()) return false;
    } while (eat(','));
    return eat(']');
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Metrics registry

TEST(Metrics, CountersSumExactlyAcrossThreads) {
  obs::MetricsRegistry reg;
  obs::Counter& counter = reg.counter("test.hits");
  obs::Histogram& hist = reg.histogram("test.samples");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.add();
        hist.record(t);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hist.summary().count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, HandlesAreStableAndFindOrCreate) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("x");
  // Force rebalancing of the name map; `a` must stay valid.
  for (int i = 0; i < 100; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    reg.counter(name);
  }
  obs::Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(Metrics, NameBoundToOneKind) {
  obs::MetricsRegistry reg;
  reg.counter("metric");
  EXPECT_THROW(reg.gauge("metric"), Error);
  EXPECT_THROW(reg.histogram("metric"), Error);
}

TEST(Metrics, HistogramSummaryMatchesStats) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("h");
  for (int i = 1; i <= 100; ++i) h.record(i);
  const obs::Histogram::Summary s = h.summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.sum, 5050.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.p50, percentile(h.samples(), 50));
  EXPECT_DOUBLE_EQ(s.p99, percentile(h.samples(), 99));
}

TEST(Metrics, WriteJsonIsWellFormed) {
  obs::MetricsRegistry reg;
  reg.counter("a.count").add(7);
  reg.gauge("b.gauge").set(1.5);
  reg.histogram("c.hist").record(2.0);
  reg.histogram("empty.hist");
  std::ostringstream os;
  reg.write_json(os);
  EXPECT_TRUE(JsonChecker::valid(os.str())) << os.str();
  EXPECT_NE(os.str().find("\"a.count\": 7"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Spans

TEST(Spans, NestedWallSpansCloseInnerFirst) {
  obs::SpanTracer tracer;
  {
    obs::Span outer = tracer.span("outer");
    { obs::Span inner = tracer.span("inner", "detail"); }
    obs::Span moved = std::move(outer);  // move keeps RAII single-closing
  }
  const std::vector<obs::SpanRecord> records = tracer.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, "inner");  // finished first
  EXPECT_EQ(records[1].name, "outer");
  EXPECT_LE(records[1].wall_start_us, records[0].wall_start_us);
  EXPECT_GE(records[1].wall_end_us, records[0].wall_end_us);
  EXPECT_EQ(records[0].category, "detail");
  EXPECT_FALSE(records[0].has_virtual);
}

TEST(Spans, DisengagedSpanIsANoOp) {
  obs::Span s;  // default-constructed: no tracer
  EXPECT_FALSE(s.active());
  s.set_virtual(0, 0.0, 1.0);
  s.end();  // must not crash
}

TEST(Spans, VirtualRecordsKeepRankAndOrdering) {
  obs::SpanTracer tracer;
  tracer.record_virtual(2, "recv", "comm", 1.0, 3.5);
  tracer.record_virtual(0, "retry", "fault", 1.5, 2.0,
                        "{\"attempt\":0}");
  const std::vector<obs::SpanRecord> records = tracer.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].rank, 2);
  EXPECT_TRUE(records[0].has_virtual);
  EXPECT_FALSE(records[0].has_wall);
  EXPECT_DOUBLE_EQ(records[0].vt_start, 1.0);
  EXPECT_DOUBLE_EQ(records[0].vt_end, 3.5);
  EXPECT_EQ(records[1].args_json, "{\"attempt\":0}");
}

TEST(Spans, ChromeTraceExportIsWellFormed) {
  obs::SpanTracer tracer;
  { obs::Span s = tracer.span("phase"); }
  tracer.record_virtual(0, "recv", "comm", 0.0, 2.0, "{\"bytes\":64}");
  tracer.record_virtual(1, "recv", "comm", 1.0, 4.0);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string trace = os.str();
  EXPECT_TRUE(JsonChecker::valid(trace)) << trace;
  // Both timelines present: wall-clock process and virtual-time process
  // with named rank threads, durations in microseconds.
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("wall clock"), std::string::npos);
  EXPECT_NE(trace.find("virtual time"), std::string::npos);
  EXPECT_NE(trace.find("rank 1"), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"bytes\":64"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Shared fixture: a nontrivial mapping problem (4 sites, profiled app,
// pinned processes) for audit and bit-identical tests.

mapping::MappingProblem test_problem(int ranks) {
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

// ---------------------------------------------------------------------------
// Mapper decision audit trail

TEST(Audit, DecompositionReproducesCostModel) {
  const mapping::MappingProblem problem = test_problem(32);
  obs::Collector collector;
  core::GeoDistMapper mapper;
  mapper.set_collector(&collector);
  (void)mapper.map(problem);

  const std::vector<obs::MapCallRecord> calls = collector.audit().calls();
  ASSERT_EQ(calls.size(), 1u);
  const obs::MapCallRecord& call = calls[0];
  EXPECT_EQ(call.mapper, "Geo-distributed");
  EXPECT_EQ(call.num_processes, 32);
  EXPECT_EQ(call.num_sites, 4);
  EXPECT_EQ(call.orders_enumerated,
            static_cast<std::int64_t>(call.orders.size()));
  EXPECT_EQ(call.num_groups, 4);  // 4 sites, kappa = 4: identity grouping
  ASSERT_EQ(call.orders.size(), 24u);  // 4! orders

  const mapping::CostEvaluator eval(problem);
  int winners = 0;
  double best_cost = std::numeric_limits<double>::max();
  for (const obs::OrderDecision& d : call.orders) {
    ASSERT_EQ(d.order.size(), 4u);
    ASSERT_FALSE(d.pairs.empty());
    // Rebuild the candidate mapping for this order; the recorded cost
    // must be bit-identical to what CostEvaluator says about it.
    const Mapping candidate = core::fill_for_order(
        problem, mapper.last_grouping(),
        std::vector<GroupId>(d.order.begin(), d.order.end()),
        core::GeoDistOptions::FillEngine::kHeap);
    EXPECT_EQ(d.cost_seconds, eval.total_cost(candidate));
    // The alpha+beta pair terms reproduce that cost. Same addends, but
    // folded pair-major instead of edge-major, so the reassociation error
    // grows with edge count — a tight relative tolerance, not bit equality.
    double pair_sum = 0;
    for (const obs::PairTerm& pt : d.pairs) {
      EXPECT_GE(pt.alpha_seconds, 0.0);
      EXPECT_GE(pt.beta_seconds, 0.0);
      pair_sum += pt.alpha_seconds + pt.beta_seconds;
    }
    EXPECT_NEAR(pair_sum, d.cost_seconds, 1e-12 * d.cost_seconds);
    winners += d.winner ? 1 : 0;
    best_cost = std::min(best_cost, d.cost_seconds);
  }
  EXPECT_EQ(winners, 1);
  for (const obs::OrderDecision& d : call.orders) {
    if (d.winner) {
      EXPECT_EQ(d.cost_seconds, best_cost);
    }
  }
}

TEST(Audit, BreakdownTotalBitIdenticalToTotalCost) {
  const mapping::MappingProblem problem = test_problem(32);
  const mapping::CostEvaluator eval(problem);
  Rng rng(11);
  for (int t = 0; t < 5; ++t) {
    const Mapping m = mapping::RandomMapper::draw(problem, rng);
    const mapping::CostBreakdown b = eval.breakdown(m);
    EXPECT_EQ(b.total, eval.total_cost(m));  // exact, not approximate
    double messages = 0;
    for (const double c : b.messages) messages += c;
    EXPECT_GT(messages, 0.0);
  }
}

TEST(Audit, WriteJsonIsWellFormed) {
  const mapping::MappingProblem problem = test_problem(16);
  obs::Collector collector;
  core::GeoDistMapper mapper;
  mapper.set_collector(&collector);
  (void)mapper.map(problem);
  std::ostringstream os;
  collector.write_audit_json(os);
  EXPECT_TRUE(JsonChecker::valid(os.str()));
  EXPECT_NE(os.str().find("\"map_calls\""), std::string::npos);
  EXPECT_NE(os.str().find("\"alpha_seconds\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Bit-identical-when-off / observation-only contracts

TEST(Collector, MapperDecisionsUnchangedByCollector) {
  const mapping::MappingProblem problem = test_problem(32);
  const Mapping plain = core::GeoDistMapper().map(problem);
  obs::Collector collector;
  core::GeoDistMapper audited_mapper;
  audited_mapper.set_collector(&collector);
  const Mapping audited = audited_mapper.map(problem);
  EXPECT_EQ(plain, audited);
}

runtime::RunResult run_kmeans(runtime::Runtime& rt) {
  const apps::App& app = apps::app_by_name("K-means");
  const apps::AppConfig cfg = app.default_config(rt.num_ranks());
  return rt.run([&](runtime::Comm& c) { (void)app.run(c, cfg); });
}

TEST(Collector, FaultedRunResultBitIdenticalWithAndWithoutCollector) {
  const net::CloudTopology topo(net::aws_experiment_profile(2));
  const net::CalibrationResult calib = net::Calibrator().calibrate(topo);
  // One rank per site: each directed WAN link then has exactly one
  // receiving rank, so link queueing is sequential and the run is exactly
  // reproducible (cross-site runs are otherwise deterministic only up to
  // link-queueing order — see runtime_test.cpp). That isolates what this
  // test is about: attaching a collector must not perturb virtual time.
  const Mapping mapping{0, 1, 2, 3};

  fault::FaultPlan plan(2017);
  plan.add_message_loss(0, 1, 0.0, fault::kNoEnd, 0.3);
  plan.add_site_outage(2, 0.01, 0.05);

  runtime::RunResult plain, observed;
  {
    runtime::Runtime rt(calib.model, mapping, topo.instance().gflops);
    rt.set_fault_plan(&plan);
    plain = run_kmeans(rt);
  }
  obs::Collector collector;
  {
    runtime::Runtime rt(calib.model, mapping, topo.instance().gflops);
    rt.set_fault_plan(&plan);
    rt.set_collector(&collector);
    observed = run_kmeans(rt);
  }
  EXPECT_EQ(plain.makespan, observed.makespan);
  EXPECT_EQ(plain.max_comm_seconds, observed.max_comm_seconds);
  EXPECT_EQ(plain.total_retries, observed.total_retries);
  EXPECT_EQ(plain.total_fault_seconds, observed.total_fault_seconds);
  ASSERT_EQ(plain.ranks.size(), observed.ranks.size());
  for (std::size_t r = 0; r < plain.ranks.size(); ++r) {
    EXPECT_EQ(plain.ranks[r].finish_time, observed.ranks[r].finish_time);
    EXPECT_EQ(plain.ranks[r].comm_seconds, observed.ranks[r].comm_seconds);
  }

  // The collector saw the run: messages counted exactly, retries matched,
  // and the virtual timeline carries rank envelopes plus fault spans.
  std::uint64_t messages = 0;
  for (const runtime::RankStats& rs : plain.ranks)
    messages += rs.messages_sent;
  EXPECT_EQ(collector.metrics().counter("comm.messages_sent").value(),
            messages);
  EXPECT_EQ(collector.metrics().counter("comm.retries").value(),
            plain.total_retries);
  bool saw_fault_span = false, saw_rank_envelope = false;
  for (const obs::SpanRecord& rec : collector.tracer().records()) {
    if (rec.category == "fault" && rec.has_virtual) saw_fault_span = true;
    if (rec.name == "rank" && rec.has_virtual) saw_rank_envelope = true;
  }
  EXPECT_GT(plain.total_retries, 0u);  // the plan must actually bite
  EXPECT_EQ(saw_fault_span, plain.total_retries > 0);
  EXPECT_TRUE(saw_rank_envelope);

  std::ostringstream os;
  collector.write_trace_json(os);
  EXPECT_TRUE(JsonChecker::valid(os.str()));
}

TEST(Collector, ReplayResultsBitIdenticalWithCollector) {
  const mapping::MappingProblem problem = test_problem(32);
  Rng rng(3);
  const Mapping m = mapping::RandomMapper::draw(problem, rng);
  const sim::ContentionResult plain =
      sim::replay_with_contention(problem.comm, problem.network, m);
  obs::Collector collector;
  const sim::ContentionResult observed = sim::replay_with_contention(
      problem.comm, problem.network, m, &collector);
  EXPECT_EQ(plain.makespan, observed.makespan);
  EXPECT_EQ(plain.busiest_link_seconds, observed.busiest_link_seconds);
  EXPECT_EQ(plain.total_transfer_seconds, observed.total_transfer_seconds);
  EXPECT_GT(collector.metrics().counter("sim.edges_replayed").value(), 0u);
}

TEST(Collector, PipelineThreadsCollectorThroughPhases) {
  const net::CloudTopology topo(net::aws_experiment_profile(4));
  const apps::App& app = apps::app_by_name("K-means");
  const int ranks = 16;
  trace::CommMatrix comm =
      app.synthetic_pattern(ranks, app.default_config(ranks));

  obs::Collector collector;
  core::PipelineOptions options;
  options.collector = &collector;
  core::Pipeline pipeline(options);
  const core::PipelineResult result = pipeline.execute(topo, comm);
  EXPECT_EQ(static_cast<int>(result.run.mapping.size()), ranks);

  bool saw_calibrate = false, saw_map = false, saw_search = false;
  for (const obs::SpanRecord& rec : collector.tracer().records()) {
    if (rec.name == "pipeline/calibrate") saw_calibrate = true;
    if (rec.name == "pipeline/map") saw_map = true;
    if (rec.name == "mapper/order-search") saw_search = true;
  }
  EXPECT_TRUE(saw_calibrate);
  EXPECT_TRUE(saw_map);
  EXPECT_TRUE(saw_search);  // pipeline handed the collector to the mapper
  EXPECT_FALSE(collector.audit().empty());

  // Identical pipeline without a collector: identical mapping.
  const core::PipelineResult plain = core::Pipeline().execute(topo, comm);
  EXPECT_EQ(plain.run.mapping, result.run.mapping);
}

}  // namespace
}  // namespace geomap

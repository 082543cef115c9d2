// Tests for the simulator: analytic alpha-beta cost agreement with the
// CostEvaluator, contention replay invariants, and the perf model.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "fault/degraded_network.h"
#include "fault/fault_plan.h"
#include "mapping/cost.h"
#include "mapping/random_mapper.h"
#include "obs/collector.h"
#include "sim/netsim.h"
#include "sim/perf_model.h"
#include "test_util.h"

namespace geomap::sim {
namespace {

using testutil::random_problem;

TEST(NetSim, AlphaBetaCostEqualsCostEvaluator) {
  const mapping::MappingProblem p = random_problem(20, 0.2, 3);
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const Mapping m = mapping::RandomMapper::draw(p, rng);
    EXPECT_EQ(mapping::alpha_beta_cost(p.comm, p.network, m),
              mapping::CostEvaluator(p).total_cost(m));
  }
}

TEST(NetSim, ReplayTotalTransferEqualsAnalyticCost) {
  const mapping::MappingProblem p = random_problem(20, 0.2, 7);
  Rng rng(9);
  const Mapping m = mapping::RandomMapper::draw(p, rng);
  const ContentionResult r = replay_with_contention(p.comm, p.network, m);
  EXPECT_NEAR(r.total_transfer_seconds,
              mapping::alpha_beta_cost(p.comm, p.network, m), 1e-9);
}

TEST(NetSim, ReplayMakespanBounds) {
  const mapping::MappingProblem p = random_problem(24, 0.0, 11);
  Rng rng(13);
  const Mapping m = mapping::RandomMapper::draw(p, rng);
  const ContentionResult r = replay_with_contention(p.comm, p.network, m);
  // Makespan at least the busiest link's serialized work, at most the
  // total serialized work.
  EXPECT_GE(r.makespan, r.busiest_link_seconds * (1 - 1e-12));
  EXPECT_LE(r.makespan, r.total_transfer_seconds * (1 + 1e-12));
  EXPECT_GT(r.makespan, 0.0);
}

TEST(NetSim, ContentionSerializesSharedLink) {
  // Two processes on site 0 each send 1 MB to two processes on site 1:
  // both flows share link (0,1) and must serialize; with the flows on
  // disjoint site pairs they run concurrently.
  trace::CommMatrix::Builder b(4);
  b.add_message(0, 1, 1e6, 1);
  b.add_message(2, 3, 1e6, 1);
  const trace::CommMatrix comm = b.build();

  Matrix lat = Matrix::square(3, 0.0);
  Matrix bw = Matrix::square(3, 1e6);
  const net::NetworkModel model(lat, bw);

  const ContentionResult shared =
      replay_with_contention(comm, model, {0, 1, 0, 1});
  const ContentionResult disjoint =
      replay_with_contention(comm, model, {0, 1, 2, 1});
  EXPECT_NEAR(shared.makespan, 2.0, 1e-9);    // serialized
  EXPECT_NEAR(disjoint.makespan, 1.0, 1e-9);  // parallel links
}

TEST(NetSim, IntraSiteTrafficNeverQueues) {
  trace::CommMatrix::Builder b(4);
  b.add_message(0, 1, 1e6, 1);
  b.add_message(2, 3, 1e6, 1);
  const trace::CommMatrix comm = b.build();
  Matrix lat = Matrix::square(1, 0.0);
  Matrix bw = Matrix::square(1, 1e6);
  const net::NetworkModel model(lat, bw);
  const ContentionResult r =
      replay_with_contention(comm, model, {0, 0, 0, 0});
  EXPECT_NEAR(r.makespan, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.busiest_link_seconds, 0.0);
}

TEST(NetSim, TiedIssuesQueueInProcessOrder) {
  // Processes 0..7 on site 0 each send one message to process 8 on site 1
  // at t = 0: every issue ties, and the shared WAN link serves them in
  // process-id order, whatever order the event queue keeps equal times.
  const int senders = 8;
  trace::CommMatrix::Builder builder(senders + 1);
  for (ProcessId i = 0; i < senders; ++i)
    builder.add_message(i, senders, 1e3 * (senders - i), 1);
  const trace::CommMatrix comm = builder.build();
  const net::NetworkModel model(Matrix::square(2, 1e-3),
                                Matrix::square(2, 1e6));
  Mapping mapping(static_cast<std::size_t>(senders), 0);
  mapping.push_back(1);

  obs::Collector collector;
  (void)replay_with_contention(comm, model, mapping, &collector, "ties");
  const std::vector<obs::CritGraph::Run> runs = collector.critpath().runs();
  ASSERT_EQ(runs.size(), 1u);
  std::vector<obs::CritEvent> events =
      collector.critpath().canonical_events(runs[0].id);
  ASSERT_EQ(events.size(), static_cast<std::size_t>(senders));
  std::sort(events.begin(), events.end(),
            [](const obs::CritEvent& a, const obs::CritEvent& b) {
              return a.start < b.start;
            });
  for (int k = 0; k < senders; ++k) {
    const obs::CritEvent& e = events[static_cast<std::size_t>(k)];
    EXPECT_EQ(e.rank, k) << "position " << k;
    EXPECT_EQ(e.ready, 0.0);
    EXPECT_EQ(e.src_site, 0);
    EXPECT_EQ(e.dst_site, 1);
    if (k > 0) {
      EXPECT_EQ(e.start, events[static_cast<std::size_t>(k - 1)].end);
    }
  }
}

TEST(NetSim, ReplayRejectsSitesOutsideTheModel) {
  trace::CommMatrix::Builder b(3);
  b.add_message(0, 1, 1e3, 1);
  b.add_message(1, 2, 1e3, 1);
  const trace::CommMatrix comm = b.build();
  const net::NetworkModel model(Matrix::square(2, 1e-3),
                                Matrix::square(2, 1e6));
  const fault::FaultPlan no_faults;
  const fault::DegradedNetworkModel degraded(model, no_faults);
  for (const Mapping& bad : {Mapping{0, 1, 2}, Mapping{0, -1, 1}}) {
    EXPECT_THROW((void)replay_with_contention(comm, model, bad),
                 InvalidArgument);
    EXPECT_THROW((void)replay_with_contention(comm, degraded, bad),
                 InvalidArgument);
  }
  EXPECT_THROW((void)replay_with_contention(comm, model, Mapping{0, 1}),
               InvalidArgument);
}

TEST(NetSim, ImprovementPercent) {
  const mapping::MappingProblem p = random_problem(16, 0.0, 21);
  Rng rng(23);
  const Mapping base = mapping::RandomMapper::draw(p, rng);
  EXPECT_DOUBLE_EQ(comm_improvement_percent(p.comm, p.network, base, base),
                   0.0);
}

TEST(PerfModel, TotalImprovementDilutedByComputeShare) {
  // 10 s comm + 30 s compute; halving comm saves 5/40 = 12.5% total.
  const PerfBreakdown base{10.0, 30.0, 0.0};
  EXPECT_DOUBLE_EQ(total_improvement_percent(base, 5.0), 12.5);
  // Pure communication job: the full 50%.
  const PerfBreakdown pure{10.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(total_improvement_percent(pure, 5.0), 50.0);
  EXPECT_THROW(total_improvement_percent(PerfBreakdown{}, 1.0), Error);
}

}  // namespace
}  // namespace geomap::sim

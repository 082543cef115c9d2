// Multi-tenant substrate (src/tenancy): shared-link replay semantics,
// the remap wait-and-retry path (both outcomes), scheduler determinism
// and tie-breaking, storm queue-and-retry drain, cross-tenant
// invariants, and the soak harness end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "apps/app.h"
#include "common/error.h"
#include "core/remap.h"
#include "fault/chaos.h"
#include "fault/degraded_network.h"
#include "fault/fault_plan.h"
#include "obs/collector.h"
#include "obs/detector.h"
#include "obs/timeseries.h"
#include "sim/netsim.h"
#include "tenancy/scheduler.h"
#include "tenancy/soak.h"
#include "tenancy/substrate.h"
#include "test_util.h"

namespace geomap::tenancy {
namespace {

/// Round-robin feasible mapping over the problem's sites (capacities in
/// the testutil problems are uniform, so i % M always fits).
Mapping round_robin(const mapping::MappingProblem& problem) {
  Mapping m(static_cast<std::size_t>(problem.num_processes()));
  std::vector<int> used(static_cast<std::size_t>(problem.num_sites()), 0);
  for (ProcessId i = 0; i < problem.num_processes(); ++i) {
    SiteId s = i % problem.num_sites();
    while (used[static_cast<std::size_t>(s)] >=
           problem.capacities[static_cast<std::size_t>(s)]) {
      s = (s + 1) % problem.num_sites();
    }
    m[static_cast<std::size_t>(i)] = s;
    used[static_cast<std::size_t>(s)] += 1;
  }
  return m;
}

// ---------------------------------------------------------------------------
// Remap wait-and-retry (core/remap.h)

TEST(RemapRetryTest, BackoffIsExponentialAndCapped) {
  core::RemapRetryPolicy retry;
  retry.initial_backoff = 0.5;
  retry.backoff_multiplier = 2.0;
  retry.max_backoff = 3.0;
  EXPECT_DOUBLE_EQ(retry.backoff(1), 0.5);
  EXPECT_DOUBLE_EQ(retry.backoff(2), 1.0);
  EXPECT_DOUBLE_EQ(retry.backoff(3), 2.0);
  EXPECT_DOUBLE_EQ(retry.backoff(4), 3.0);  // capped
  EXPECT_DOUBLE_EQ(retry.backoff(10), 3.0);
}

TEST(RemapRetryTest, ValidateRejectsMalformedPolicies) {
  core::RemapRetryPolicy retry;
  retry.max_attempts = 0;
  EXPECT_THROW(retry.validate(), InvalidArgument);
  retry = {};
  retry.backoff_multiplier = 0.5;
  EXPECT_THROW(retry.validate(), InvalidArgument);
  retry = {};
  retry.max_backoff = retry.initial_backoff / 2;
  EXPECT_THROW(retry.validate(), InvalidArgument);
}

TEST(RemapRetryTest, FirstAttemptSucceedsWithoutWaiting) {
  const mapping::MappingProblem problem =
      testutil::random_problem(8, 0.0, /*seed=*/11, /*degree=*/3, /*slack=*/2);
  const Mapping current = round_robin(problem);
  fault::FaultPlan plan;
  plan.add_site_outage(3, 5.0);

  const core::RetriedRemapResult r =
      core::remap_on_outage_with_retry(problem, current, plan, 3, 5.0);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_DOUBLE_EQ(r.waited, 0.0);
  EXPECT_DOUBLE_EQ(r.decided_at, 5.0);
  for (const SiteId s : r.remap.mapping) EXPECT_NE(s, 3);
}

TEST(RemapRetryTest, RetriesUntilTheCapacityProbeFreesSlots) {
  // Zero slack: the survivors cannot host everyone until the probe
  // reports freed capacity at t >= 6.
  const mapping::MappingProblem problem =
      testutil::random_problem(8, 0.0, /*seed=*/13, /*degree=*/3, /*slack=*/0);
  const Mapping current = round_robin(problem);
  fault::FaultPlan plan;
  plan.add_site_outage(3, 5.0);

  core::RemapRetryPolicy retry;
  retry.max_attempts = 5;
  retry.initial_backoff = 1.0;
  retry.backoff_multiplier = 2.0;
  const core::CapacityProbe probe = [&](Seconds t) {
    std::vector<int> caps = problem.capacities;
    if (t >= 6.0) {
      for (SiteId s = 0; s < problem.num_sites(); ++s) {
        if (s != 3) caps[static_cast<std::size_t>(s)] += 2;
      }
    }
    return caps;
  };

  const core::RetriedRemapResult r = core::remap_on_outage_with_retry(
      problem, current, plan, 3, 5.0, {}, retry, probe);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_DOUBLE_EQ(r.waited, 1.0);
  EXPECT_DOUBLE_EQ(r.decided_at, 6.0);
  for (const SiteId s : r.remap.mapping) EXPECT_NE(s, 3);
}

TEST(RemapRetryTest, GivesUpWithTypedErrorAfterMaxAttempts) {
  const mapping::MappingProblem problem =
      testutil::random_problem(8, 0.0, /*seed=*/13, /*degree=*/3, /*slack=*/0);
  const Mapping current = round_robin(problem);
  fault::FaultPlan plan;
  plan.add_site_outage(3, 5.0);

  core::RemapRetryPolicy retry;
  retry.max_attempts = 3;
  retry.initial_backoff = 1.0;
  retry.backoff_multiplier = 2.0;
  try {
    core::remap_on_outage_with_retry(problem, current, plan, 3, 5.0, {},
                                     retry);
    FAIL() << "expected RemapGaveUp";
  } catch (const core::RemapGaveUp& e) {
    EXPECT_EQ(e.attempts(), 3);
    // Waited backoff(1) + backoff(2) = 1 + 2 after the failed attempts.
    EXPECT_DOUBLE_EQ(e.gave_up_at(), 5.0 + 1.0 + 2.0);
  }
}

// ---------------------------------------------------------------------------
// Shared-substrate replay (sim::replay_multitenant)

TEST(MultiTenantReplayTest, FaultFreeSingleTenantMatchesContentionReplay) {
  // Every app pattern at three sizes, round-robin over the four AWS
  // regions: one tenant through the shared replay is the single-tenant
  // replay, bit for bit, with either single-tenant overload.
  const net::CloudTopology topo(net::aws_experiment_profile(64));
  const net::NetworkModel network = net::NetworkModel::from_ground_truth(topo);
  const fault::FaultPlan no_faults;
  const fault::DegradedNetworkModel model(network, no_faults);
  for (const apps::App* app : apps::extended_apps()) {
    for (const int n : {16, 64, 256}) {
      SCOPED_TRACE(app->name() + " N=" + std::to_string(n));
      const trace::CommMatrix comm =
          app->synthetic_pattern(n, app->default_config(n));
      Mapping mapping(static_cast<std::size_t>(n));
      for (std::size_t i = 0; i < mapping.size(); ++i)
        mapping[i] = static_cast<SiteId>(i % 4);

      const sim::MultiTenantReplayResult shared =
          sim::replay_multitenant({{&comm, &mapping}}, model);
      ASSERT_EQ(shared.tenants.size(), 1u);
      EXPECT_EQ(shared.tenants[0].forced_edges, 0);
      EXPECT_EQ(shared.tenants[0].makespan, shared.makespan);
      for (const sim::ContentionResult& solo :
           {sim::replay_with_contention(comm, network, mapping),
            sim::replay_with_contention(comm, model, mapping)}) {
        EXPECT_EQ(shared.makespan, solo.makespan);
        EXPECT_EQ(shared.busiest_link_seconds, solo.busiest_link_seconds);
        EXPECT_EQ(shared.tenants[0].total_transfer_seconds,
                  solo.total_transfer_seconds);
      }
    }
  }
}

TEST(MultiTenantReplayTest, BitIdenticalAcrossRuns) {
  const mapping::MappingProblem a =
      testutil::random_problem(8, 0.0, /*seed=*/31, /*degree=*/3, /*slack=*/2);
  const mapping::MappingProblem b =
      testutil::random_problem(12, 0.0, /*seed=*/32, /*degree=*/4, /*slack=*/2);
  const Mapping ma = round_robin(a);
  const Mapping mb = round_robin(b);
  const fault::FaultPlan no_faults;
  const fault::DegradedNetworkModel model(a.network, no_faults);
  const std::vector<sim::TenantFlow> flows = {{&a.comm, &ma}, {&b.comm, &mb}};

  const sim::MultiTenantReplayResult r1 = sim::replay_multitenant(flows, model);
  const sim::MultiTenantReplayResult r2 = sim::replay_multitenant(flows, model);
  ASSERT_EQ(r1.tenants.size(), r2.tenants.size());
  EXPECT_EQ(r1.makespan, r2.makespan);
  EXPECT_EQ(r1.busiest_link_seconds, r2.busiest_link_seconds);
  for (std::size_t k = 0; k < r1.tenants.size(); ++k) {
    EXPECT_EQ(r1.tenants[k].makespan, r2.tenants[k].makespan);
    EXPECT_EQ(r1.tenants[k].total_transfer_seconds,
              r2.tenants[k].total_transfer_seconds);
  }
}

TEST(MultiTenantReplayTest, RoundsRepeatTheAppBody) {
  const mapping::MappingProblem problem =
      testutil::random_problem(8, 0.0, /*seed=*/33, /*degree=*/3, /*slack=*/2);
  const Mapping mapping = round_robin(problem);
  const fault::FaultPlan no_faults;
  const fault::DegradedNetworkModel model(problem.network, no_faults);

  const sim::MultiTenantReplayResult once =
      sim::replay_multitenant({{&problem.comm, &mapping}}, model);
  sim::MultiTenantReplayOptions options;
  options.rounds = 3;
  const sim::MultiTenantReplayResult thrice =
      sim::replay_multitenant({{&problem.comm, &mapping}}, model, options);
  // Healthy per-edge prices are time-invariant, so the transfer sum
  // scales exactly with the rounds (summation order may differ).
  EXPECT_NEAR(thrice.tenants[0].total_transfer_seconds,
              3.0 * once.tenants[0].total_transfer_seconds,
              1e-9 * once.tenants[0].total_transfer_seconds);
  EXPECT_GT(thrice.makespan, once.makespan);
}

TEST(MultiTenantReplayTest, ForceThroughFeedsTheDetectorAndVote) {
  const mapping::MappingProblem problem =
      testutil::random_problem(8, 0.0, /*seed=*/35, /*degree=*/3, /*slack=*/2);
  const Mapping mapping = round_robin(problem);
  fault::FaultPlan plan;
  plan.add_site_outage(0, 0.0);  // permanently dead from the start
  const fault::DegradedNetworkModel model(problem.network, plan);

  obs::Collector collector;
  sim::MultiTenantReplayOptions options;
  options.rounds = 4;
  options.collector = &collector;
  const sim::MultiTenantReplayResult r =
      sim::replay_multitenant({{&problem.comm, &mapping}}, model, options);
  EXPECT_GT(r.tenants[0].forced_edges, 0);

  obs::DegradationDetector detector;
  detector.scan(collector.timeline());
  const core::SuspectVote vote = core::vote_suspected_site(detector.events());
  EXPECT_EQ(vote.site, 0);
}

TEST(MultiTenantReplayTest, PermanentOutageThrowsWithForceThroughDisabled) {
  const mapping::MappingProblem problem =
      testutil::random_problem(8, 0.0, /*seed=*/35, /*degree=*/3, /*slack=*/2);
  const Mapping mapping = round_robin(problem);
  fault::FaultPlan plan;
  plan.add_site_outage(0, 0.0);
  const fault::DegradedNetworkModel model(problem.network, plan);

  sim::MultiTenantReplayOptions options;
  options.force_through = false;
  EXPECT_THROW(
      sim::replay_multitenant({{&problem.comm, &mapping}}, model, options),
      Error);
}

// ---------------------------------------------------------------------------
// Tenant-labeled series (obs/timeseries.h)

TEST(TenantLabelTest, RoundTripsAndRejectsPlainLabels) {
  const std::string label = obs::tenant_link_label(3, 0, 2);
  EXPECT_EQ(label, "t3:0->2");
  int tenant = -1, src = -1, dst = -1;
  EXPECT_TRUE(obs::parse_tenant_link_label(label, &tenant, &src, &dst));
  EXPECT_EQ(tenant, 3);
  EXPECT_EQ(src, 0);
  EXPECT_EQ(dst, 2);
  EXPECT_FALSE(obs::parse_tenant_link_label("0->2", &tenant, &src, &dst));
  EXPECT_FALSE(obs::parse_tenant_link_label("tx:0->2", &tenant, &src, &dst));
  EXPECT_FALSE(obs::parse_tenant_link_label("t3:junk", &tenant, &src, &dst));
}

// ---------------------------------------------------------------------------
// Remap/migration scheduler (tenancy/scheduler.h)

/// Mirror of the soak's request construction: every tenant homed on the
/// failed site files one request at `t`.
std::vector<RemapRequest> stranded_requests(const Substrate& substrate,
                                            SiteId failed, Seconds t) {
  std::vector<RemapRequest> requests;
  for (const Tenant& tenant : substrate.tenants) {
    int stranded = 0;
    for (const SiteId s : tenant.mapping) {
      if (s == failed) stranded += 1;
    }
    if (stranded == 0) continue;
    RemapRequest r;
    r.tenant = tenant.id;
    r.request_time = t;
    r.severity =
        static_cast<double>(stranded) / static_cast<double>(tenant.mapping.size());
    requests.push_back(r);
  }
  return requests;
}

/// Site hosting the most tenants' ranks — killing it maximizes requests.
SiteId busiest_site(const Substrate& substrate) {
  const std::vector<int> residents = substrate.residents();
  return static_cast<SiteId>(std::distance(
      residents.begin(), std::max_element(residents.begin(), residents.end())));
}

void expect_journals_identical(const StormReport& a, const StormReport& b) {
  ASSERT_EQ(a.recoveries.size(), b.recoveries.size());
  EXPECT_EQ(a.grant_order, b.grant_order);
  EXPECT_EQ(a.requeues, b.requeues);
  EXPECT_EQ(a.gave_up, b.gave_up);
  EXPECT_EQ(a.storm_drain_seconds, b.storm_drain_seconds);
  for (std::size_t i = 0; i < a.recoveries.size(); ++i) {
    const TenantRecovery& ra = a.recoveries[i];
    const TenantRecovery& rb = b.recoveries[i];
    EXPECT_EQ(ra.tenant, rb.tenant);
    EXPECT_EQ(ra.granted, rb.granted);
    EXPECT_EQ(ra.gave_up, rb.gave_up);
    EXPECT_EQ(ra.attempts, rb.attempts);
    EXPECT_EQ(ra.granted_at, rb.granted_at);
    EXPECT_EQ(ra.finish_time, rb.finish_time);
    ASSERT_EQ(ra.report.events.size(), rb.report.events.size());
    for (std::size_t e = 0; e < ra.report.events.size(); ++e) {
      const fault::MigrationEvent& ea = ra.report.events[e];
      const fault::MigrationEvent& eb = rb.report.events[e];
      EXPECT_EQ(ea.kind, eb.kind);
      EXPECT_EQ(ea.t, eb.t);
      EXPECT_EQ(ea.process, eb.process);
      EXPECT_EQ(ea.site_from, eb.site_from);
      EXPECT_EQ(ea.site_to, eb.site_to);
      EXPECT_EQ(ea.bytes, eb.bytes);
    }
  }
}

SchedulerOptions small_storm_options() {
  SchedulerOptions options;
  options.migrate.bytes_per_process = 2.0 * kMiB;
  options.migrate.chunk_bytes = 512.0 * 1024;
  options.remap.bytes_per_process = 2.0 * kMiB;
  return options;
}

TEST(SchedulerTest, IdenticalSeedsAndPolicyProduceIdenticalJournals) {
  SubstrateOptions sub;
  sub.num_sites = 5;
  sub.num_tenants = 12;
  for (const SchedulerPolicy policy :
       {SchedulerPolicy::kFifo, SchedulerPolicy::kSeverity,
        SchedulerPolicy::kFairShare}) {
    Substrate s1 = make_substrate(7, sub);
    Substrate s2 = make_substrate(7, sub);
    const SiteId failed = busiest_site(s1);
    fault::FaultPlan plan;
    plan.add_site_outage(failed, 1.0);
    const std::vector<RemapRequest> requests =
        stranded_requests(s1, failed, 1.0);
    ASSERT_FALSE(requests.empty());

    SchedulerOptions options = small_storm_options();
    options.policy = policy;
    const StormReport r1 = run_remap_storm(s1, plan, failed, requests, options);
    const StormReport r2 = run_remap_storm(s2, plan, failed, requests, options);
    expect_journals_identical(r1, r2);
    EXPECT_EQ(r1.grant_order.size(), requests.size());
  }
}

TEST(SchedulerTest, EqualKeysTieBreakByTenantId) {
  SubstrateOptions sub;
  sub.num_sites = 5;
  sub.num_tenants = 10;
  Substrate substrate = make_substrate(9, sub);
  const SiteId failed = busiest_site(substrate);
  fault::FaultPlan plan;
  plan.add_site_outage(failed, 1.0);
  std::vector<RemapRequest> requests = stranded_requests(substrate, failed, 1.0);
  ASSERT_GE(requests.size(), 2u);
  // Identical request_time and severity: every policy's remaining key is
  // the tenant id, so the grant order must be ascending ids.
  for (RemapRequest& r : requests) r.severity = 1.0;

  for (const SchedulerPolicy policy :
       {SchedulerPolicy::kFifo, SchedulerPolicy::kSeverity}) {
    Substrate fresh = make_substrate(9, sub);
    SchedulerOptions options = small_storm_options();
    options.policy = policy;
    options.max_concurrent = 1;
    const StormReport report =
        run_remap_storm(fresh, plan, failed, requests, options);
    ASSERT_EQ(report.grant_order.size(), requests.size());
    EXPECT_TRUE(std::is_sorted(report.grant_order.begin(),
                               report.grant_order.end()))
        << "policy " << to_string(policy);
  }
}

TEST(SchedulerTest, InfeasibleGrantsRequeueThenGiveUp) {
  SubstrateOptions sub;
  sub.num_sites = 4;
  sub.num_tenants = 6;
  Substrate substrate = make_substrate(17, sub);
  // Shrink the shared capacities to exactly the committed residents: no
  // free slot anywhere, so every remap attempt is infeasible forever.
  substrate.site_capacities = substrate.residents();
  const SiteId failed = busiest_site(substrate);
  fault::FaultPlan plan;
  plan.add_site_outage(failed, 1.0);
  std::vector<RemapRequest> requests = stranded_requests(substrate, failed, 1.0);
  ASSERT_FALSE(requests.empty());
  requests.resize(1);

  SchedulerOptions options = small_storm_options();
  options.retry.max_attempts = 3;
  options.retry.initial_backoff = 0.5;
  const StormReport report =
      run_remap_storm(substrate, plan, failed, requests, options);
  ASSERT_EQ(report.recoveries.size(), 1u);
  EXPECT_FALSE(report.recoveries[0].granted);
  EXPECT_TRUE(report.recoveries[0].gave_up);
  EXPECT_EQ(report.recoveries[0].attempts, 3);
  EXPECT_EQ(report.requeues, 2);
  EXPECT_EQ(report.gave_up, 1);
  EXPECT_TRUE(report.grant_order.empty());
}

TEST(SchedulerTest, FairShareValidateRejectsZeroRefill) {
  SchedulerOptions options;
  options.policy = SchedulerPolicy::kFairShare;
  options.token_refill_per_second = 0.0;
  EXPECT_THROW(options.validate(), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Cross-tenant invariants (fault/chaos.h)

fault::MigrationInvariantOptions tight_bounds() {
  fault::MigrationInvariantOptions options;
  options.planned_bytes_per_process = 1.0 * kMiB;
  options.chunk_bytes = 1.0 * kMiB;
  options.max_retries = 0;
  options.max_copy_attempts = 1;
  return options;
}

fault::MigrationEvent event(fault::MigrationEventKind kind, Seconds t,
                            ProcessId process, SiteId from, SiteId to,
                            Bytes bytes = 0) {
  fault::MigrationEvent e;
  e.kind = kind;
  e.t = t;
  e.process = process;
  e.site_from = from;
  e.site_to = to;
  e.bytes = bytes;
  return e;
}

TEST(CrossTenantInvariantTest, CleanConcurrentJournalsPass) {
  using K = fault::MigrationEventKind;
  std::vector<fault::TenantJournal> journals(2);
  journals[0].initial_mapping = {0};
  journals[0].options = tight_bounds();
  journals[0].events = {event(K::kReserve, 1.0, 0, 0, 1),
                        event(K::kChunk, 1.5, 0, 0, 1, 1.0 * kMiB),
                        event(K::kCommit, 2.0, 0, 0, 1)};
  journals[1].initial_mapping = {1};
  journals[1].options = tight_bounds();

  const std::vector<fault::InvariantViolation> v =
      fault::check_cross_tenant_invariants(journals, {2, 2},
                                           fault::FaultPlan());
  EXPECT_TRUE(v.empty()) << (v.empty() ? "" : v.front().message);
}

TEST(CrossTenantInvariantTest, CatchesAggregateDoubleBooking) {
  // Each journal is individually clean, but tenant 0's reservation lands
  // on the last slot tenant 1 already occupies: aggregate 2 > capacity 1.
  using K = fault::MigrationEventKind;
  std::vector<fault::TenantJournal> journals(2);
  journals[0].initial_mapping = {0};
  journals[0].options = tight_bounds();
  journals[0].events = {event(K::kReserve, 1.0, 0, 0, 1),
                        event(K::kChunk, 1.5, 0, 0, 1, 1.0 * kMiB),
                        event(K::kCommit, 2.0, 0, 0, 1)};
  journals[1].initial_mapping = {1};
  journals[1].options = tight_bounds();

  const std::vector<fault::InvariantViolation> v =
      fault::check_cross_tenant_invariants(journals, {2, 1},
                                           fault::FaultPlan());
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.front().message.find("tenant 0"), std::string::npos)
      << v.front().message;
}

TEST(CrossTenantInvariantTest, CatchesTenantsEndingOnDeadSites) {
  std::vector<fault::TenantJournal> journals(1);
  journals[0].initial_mapping = {0, 0};
  journals[0].options = tight_bounds();
  fault::FaultPlan plan;
  plan.add_site_outage(0, 1.0);  // permanent

  const std::vector<fault::InvariantViolation> v =
      fault::check_cross_tenant_invariants(journals, {2, 2}, plan);
  ASSERT_FALSE(v.empty());
}

TEST(CrossTenantInvariantTest, CatchesLinkBytesAboveSummedBudget) {
  using K = fault::MigrationEventKind;
  std::vector<fault::TenantJournal> journals(1);
  journals[0].initial_mapping = {0};
  journals[0].options = tight_bounds();  // budget: 1 MiB on 0->1
  journals[0].events = {event(K::kReserve, 1.0, 0, 0, 1),
                        event(K::kChunk, 1.2, 0, 0, 1, 1.0 * kMiB),
                        event(K::kChunk, 1.4, 0, 0, 1, 1.0 * kMiB),
                        event(K::kChunk, 1.6, 0, 0, 1, 1.0 * kMiB),
                        event(K::kCommit, 2.0, 0, 0, 1)};

  const std::vector<fault::InvariantViolation> v =
      fault::check_cross_tenant_invariants(journals, {2, 2},
                                           fault::FaultPlan());
  ASSERT_FALSE(v.empty());
}

// ---------------------------------------------------------------------------
// Soak harness (tenancy/soak.h)

TEST(MultiTenantSoakTest, SmallCaseDrainsCleanly) {
  MultiTenantSoakOptions options;
  options.substrate.num_sites = 6;
  options.substrate.num_tenants = 30;
  const MultiTenantSoakCase c = run_multitenant_soak_case(2017, options);
  EXPECT_EQ(c.tenants, 30);
  EXPECT_TRUE(c.violations.empty())
      << (c.violations.empty() ? "" : c.violations.front().message);
  EXPECT_GE(c.invariants_checked, 1);
  EXPECT_EQ(c.storm.gave_up, 0);
  // Every stranded tenant was granted off the dead site.
  for (const TenantRecovery& rec : c.storm.recoveries)
    EXPECT_TRUE(rec.granted);
}

TEST(MultiTenantSoakTest, FairnessFromStretchMatchesJainDefinition) {
  const FairnessReport even = fairness_from_stretch({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(even.jain_index, 1.0);
  EXPECT_DOUBLE_EQ(even.max_stretch, 1.0);
  const FairnessReport skewed = fairness_from_stretch({1.0, 4.0});
  // Shares 1 and 0.25: Jain = (1.25)^2 / (2 * (1 + 0.0625)).
  EXPECT_NEAR(skewed.jain_index, 1.5625 / 2.125, 1e-12);
  EXPECT_DOUBLE_EQ(skewed.max_stretch, 4.0);
  EXPECT_THROW(fairness_from_stretch({}), InvalidArgument);
  EXPECT_THROW(fairness_from_stretch({1.0, 0.0}), InvalidArgument);
}

}  // namespace
}  // namespace geomap::tenancy

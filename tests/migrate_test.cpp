// Migration executor (src/migrate/executor.h): two-phase protocol
// states, rollback and replan under faults, idempotent commit,
// collector bit-identity, and the chaos soak harness end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "fault/chaos.h"
#include "fault/fault_plan.h"
#include "migrate/executor.h"
#include "migrate/soak.h"
#include "obs/collector.h"
#include "test_util.h"

namespace geomap::migrate {
namespace {

/// World for the protocol tests: 6 processes over the 4-region AWS
/// experiment cloud with two spare nodes per site, no pins.
mapping::MappingProblem protocol_problem() {
  return testutil::random_problem(6, 0.0, /*seed=*/7, /*degree=*/3,
                                  /*slack=*/2);
}

const Mapping kCurrent{0, 0, 1, 1, 2, 2};

MigrationOptions small_options() {
  MigrationOptions o;
  o.bytes_per_process = 10.0 * kMiB;
  o.chunk_bytes = 1.0 * kMiB;
  return o;
}

/// Certify a report's journal with the invariant checker, using the
/// executor's true worst-case attempt bound.
std::vector<fault::InvariantViolation> certify(
    const MigrationReport& report, const Mapping& initial,
    const mapping::MappingProblem& problem, const fault::FaultPlan& plan,
    const MigrationOptions& options) {
  fault::MigrationInvariantOptions inv;
  inv.planned_bytes_per_process = options.bytes_per_process;
  inv.chunk_bytes = options.chunk_bytes;
  inv.max_retries = options.retry.max_retries;
  inv.max_copy_attempts = options.max_copy_attempts + options.max_replans +
                          options.max_emergency_attempts;
  inv.horizon = report.finish_time;
  return fault::check_migration_invariants(report.events, initial,
                                           problem.capacities, plan, inv);
}

int commit_count(const MigrationReport& report, ProcessId p) {
  int count = 0;
  for (const fault::MigrationEvent& e : report.events) {
    if (e.kind == fault::MigrationEventKind::kCommit && e.process == p) ++count;
  }
  return count;
}

TEST(MigrateExecutorTest, HealthyMigrationCommitsEverything) {
  const mapping::MappingProblem problem = protocol_problem();
  const Mapping target{3, 3, 1, 1, 2, 2};
  const fault::FaultPlan plan;
  const MigrationReport report =
      execute_migration(problem, kCurrent, target, plan, 0.0, small_options());

  EXPECT_EQ(report.final_mapping, target);
  EXPECT_EQ(report.processes_planned, 2);
  EXPECT_EQ(report.processes_committed, 2);
  EXPECT_EQ(report.rollbacks, 0);
  EXPECT_EQ(report.replans, 0);
  EXPECT_TRUE(report.complete);
  EXPECT_DOUBLE_EQ(report.bytes_sent, report.bytes_planned);
  EXPECT_GT(report.migration_seconds, 0.0);
  EXPECT_GT(report.max_downtime, 0.0);
  for (ProcessId p : {0, 1}) {
    const ProcessMigrationRecord& rec = report.processes[static_cast<std::size_t>(p)];
    EXPECT_EQ(rec.outcome, ProcessOutcome::kCommitted);
    EXPECT_GE(rec.prepare_time, 0.0);
    EXPECT_GT(rec.commit_time, rec.prepare_time);
    EXPECT_EQ(commit_count(report, p), 1);
  }
  EXPECT_TRUE(certify(report, kCurrent, problem, plan, small_options()).empty());
}

TEST(MigrateExecutorTest, NoOpPlanMovesNothing) {
  const mapping::MappingProblem problem = protocol_problem();
  const fault::FaultPlan plan;
  const MigrationReport report = execute_migration(problem, kCurrent, kCurrent,
                                                   plan, 0.0, small_options());
  EXPECT_EQ(report.processes_planned, 0);
  EXPECT_EQ(report.bytes_sent, 0.0);
  EXPECT_EQ(report.migration_seconds, 0.0);
  EXPECT_EQ(report.final_mapping, kCurrent);
  EXPECT_TRUE(report.events.empty());
  // The application still replays (and defines finish_time).
  EXPECT_GT(report.app_makespan, 0.0);
}

TEST(MigrateExecutorTest, DeterministicAndCollectorBitIdentical) {
  const mapping::MappingProblem problem = protocol_problem();
  const Mapping target{3, 3, 1, 1, 2, 2};
  fault::FaultPlan plan(11);
  plan.add_site_degradation(1, 0.0, 5.0, 0.5, 2.0);
  plan.add_message_loss(0, 3, 0.0, fault::kNoEnd, 0.3);

  const MigrationReport a =
      execute_migration(problem, kCurrent, target, plan, 0.0, small_options());
  const MigrationReport b =
      execute_migration(problem, kCurrent, target, plan, 0.0, small_options());
  obs::Collector collector;
  MigrationOptions instrumented = small_options();
  instrumented.collector = &collector;
  const MigrationReport c =
      execute_migration(problem, kCurrent, target, plan, 0.0, instrumented);

  for (const MigrationReport* other : {&b, &c}) {
    EXPECT_EQ(a.final_mapping, other->final_mapping);
    EXPECT_EQ(a.bytes_sent, other->bytes_sent);
    EXPECT_EQ(a.chunk_retries, other->chunk_retries);
    EXPECT_EQ(a.rollbacks, other->rollbacks);
    EXPECT_EQ(a.finish_time, other->finish_time);
    EXPECT_EQ(a.app_makespan, other->app_makespan);
    ASSERT_EQ(a.events.size(), other->events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
      EXPECT_EQ(a.events[i].kind, other->events[i].kind);
      EXPECT_EQ(a.events[i].t, other->events[i].t);
      EXPECT_EQ(a.events[i].process, other->events[i].process);
      EXPECT_EQ(a.events[i].bytes, other->events[i].bytes);
    }
  }
  // The instrumented run exported migration.* metrics.
  EXPECT_EQ(collector.metrics().counter("migration.commits").value(), 2u);
  EXPECT_GT(collector.metrics().counter("migration.bytes_sent").value(), 0u);
}

TEST(MigrateExecutorTest, TransientDestinationOutageMidCopyRollsBackThenCommits) {
  const mapping::MappingProblem problem = protocol_problem();
  const Mapping target{3, 0, 1, 1, 2, 2};  // only p0 moves
  const MigrationOptions options = small_options();

  // Calibrate: where is the copy in a fault-free run?
  const fault::FaultPlan healthy;
  const MigrationReport calibration =
      execute_migration(problem, kCurrent, target, healthy, 0.0, options);
  const ProcessMigrationRecord& c0 = calibration.processes[0];
  ASSERT_EQ(c0.outcome, ProcessOutcome::kCommitted);
  const Seconds mid = 0.5 * (c0.prepare_time + c0.commit_time);

  // Kill the destination transiently across the middle of that copy.
  fault::FaultPlan plan(3);
  plan.add_site_outage(3, mid, c0.commit_time + 2.0);
  const MigrationReport report =
      execute_migration(problem, kCurrent, target, plan, 0.0, options);

  const ProcessMigrationRecord& rec = report.processes[0];
  EXPECT_GE(rec.rollbacks, 1);
  EXPECT_EQ(rec.outcome, ProcessOutcome::kCommitted);
  EXPECT_EQ(report.final_mapping[0], 3);
  EXPECT_EQ(commit_count(report, 0), 1);
  EXPECT_GT(rec.commit_time, c0.commit_time);  // paid the outage
  EXPECT_TRUE(certify(report, kCurrent, problem, plan, options).empty());
}

TEST(MigrateExecutorTest, PermanentDestinationOutageMidCopyReplans) {
  const mapping::MappingProblem problem = protocol_problem();
  const Mapping target{3, 0, 1, 1, 2, 2};
  const MigrationOptions options = small_options();

  const fault::FaultPlan healthy;
  const MigrationReport calibration =
      execute_migration(problem, kCurrent, target, healthy, 0.0, options);
  const ProcessMigrationRecord& c0 = calibration.processes[0];
  const Seconds mid = 0.5 * (c0.prepare_time + c0.commit_time);

  fault::FaultPlan plan(4);
  plan.add_site_outage(3, mid);  // permanent
  const MigrationReport report =
      execute_migration(problem, kCurrent, target, plan, 0.0, options);

  EXPECT_GE(report.replans, 1);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.processes_abandoned, 0);
  EXPECT_NE(report.final_mapping[0], 3);
  for (ProcessId p = 0; p < 6; ++p) {
    const SiteId s = report.final_mapping[static_cast<std::size_t>(p)];
    const bool dead = plan.site_down(s, report.finish_time) &&
                      plan.next_site_up(s, report.finish_time) == fault::kNoEnd;
    EXPECT_FALSE(dead) << "process " << p << " ended on the dead site";
  }
  EXPECT_TRUE(certify(report, kCurrent, problem, plan, options).empty());
}

TEST(MigrateExecutorTest, WatchReplansWhenACommittedSiteDies) {
  const mapping::MappingProblem problem = protocol_problem();
  const MigrationOptions options = small_options();
  // No planned moves at all: the only trigger is the outage watch.
  fault::FaultPlan plan(5);
  plan.add_site_outage(0, 1.0);  // permanent; p0 and p1 live there

  const MigrationReport report =
      execute_migration(problem, kCurrent, kCurrent, plan, 0.0, options);

  EXPECT_GE(report.replans, 1);
  EXPECT_TRUE(report.complete);
  EXPECT_NE(report.final_mapping[0], 0);
  EXPECT_NE(report.final_mapping[1], 0);
  EXPECT_EQ(report.processes_committed, 2);
  // Relocations off a dead source fetch state from a surviving replica,
  // never from the dead site itself.
  for (const fault::MigrationEvent& e : report.events) {
    if (e.kind == fault::MigrationEventKind::kChunk) {
      EXPECT_NE(e.site_from, 0);
    }
  }
  EXPECT_TRUE(certify(report, kCurrent, problem, plan, options).empty());
}

TEST(MigrateExecutorTest, CommitControlLossForcesIdempotentCutover) {
  const mapping::MappingProblem problem = protocol_problem();
  const Mapping target{3, 0, 1, 1, 2, 2};
  const MigrationOptions options = small_options();

  const fault::FaultPlan healthy;
  const MigrationReport calibration =
      execute_migration(problem, kCurrent, target, healthy, 0.0, options);
  const ProcessMigrationRecord& c0 = calibration.processes[0];
  const Seconds last_chunk_start = c0.commit_time - c0.downtime;

  // Certain loss from just after the final chunk's loss decision: every
  // commit-control attempt is lost, the cutover is forced through, and
  // it still applies exactly once.
  fault::FaultPlan plan(6);
  plan.add_message_loss(0, 3, last_chunk_start + 1e-9, fault::kNoEnd, 1.0);
  const MigrationReport report =
      execute_migration(problem, kCurrent, target, plan, 0.0, options);

  const ProcessMigrationRecord& rec = report.processes[0];
  EXPECT_EQ(rec.outcome, ProcessOutcome::kCommitted);
  EXPECT_TRUE(rec.commit_forced);
  EXPECT_EQ(rec.commit_retries, options.retry.max_retries + 1);
  EXPECT_EQ(commit_count(report, 0), 1);
  EXPECT_EQ(report.final_mapping[0], 3);
  EXPECT_TRUE(certify(report, kCurrent, problem, plan, options).empty());
}

TEST(MigrateExecutorTest, CopyBudgetExhaustionSettlesAtLiveSource) {
  const mapping::MappingProblem problem = protocol_problem();
  const Mapping target{3, 0, 1, 1, 2, 2};
  MigrationOptions options = small_options();
  options.max_copy_attempts = 1;

  const fault::FaultPlan healthy;
  const MigrationReport calibration =
      execute_migration(problem, kCurrent, target, healthy, 0.0, options);
  const ProcessMigrationRecord& c0 = calibration.processes[0];
  const Seconds mid = 0.5 * (c0.prepare_time + c0.commit_time);

  fault::FaultPlan plan(8);
  plan.add_site_outage(3, mid, mid + 500.0);  // long transient outage
  const MigrationReport report =
      execute_migration(problem, kCurrent, target, plan, 0.0, options);

  const ProcessMigrationRecord& rec = report.processes[0];
  EXPECT_EQ(rec.rollbacks, 1);
  EXPECT_EQ(rec.outcome, ProcessOutcome::kRolledBack);
  EXPECT_EQ(report.final_mapping[0], 0);  // stayed home
  EXPECT_EQ(commit_count(report, 0), 0);
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(certify(report, kCurrent, problem, plan, options).empty());
}

TEST(MigrateExecutorTest, LossyChunksRetryWithinByteBudget) {
  const mapping::MappingProblem problem = protocol_problem();
  const Mapping target{3, 0, 1, 1, 2, 2};
  const MigrationOptions options = small_options();
  fault::FaultPlan plan(9);
  plan.add_message_loss(0, 3, 0.0, fault::kNoEnd, 0.4);

  const MigrationReport report =
      execute_migration(problem, kCurrent, target, plan, 0.0, options);
  EXPECT_GT(report.chunk_retries, 0);
  EXPECT_GT(report.bytes_sent, report.bytes_planned);
  EXPECT_EQ(report.processes_committed, 1);
  EXPECT_TRUE(certify(report, kCurrent, problem, plan, options).empty());
}

TEST(MigrateExecutorTest, StatelessProcessesCommitWithoutChunks) {
  const mapping::MappingProblem problem = protocol_problem();
  const Mapping target{3, 3, 1, 1, 2, 2};
  MigrationOptions options = small_options();
  options.bytes_per_process = 0;
  const fault::FaultPlan plan;
  const MigrationReport report =
      execute_migration(problem, kCurrent, target, plan, 0.0, options);
  EXPECT_EQ(report.processes_committed, 2);
  EXPECT_EQ(report.bytes_sent, 0.0);
  EXPECT_EQ(report.final_mapping, target);
  EXPECT_TRUE(certify(report, kCurrent, problem, plan, options).empty());
}

TEST(MigrateExecutorTest, ValidatesInputs) {
  const mapping::MappingProblem problem = protocol_problem();
  const fault::FaultPlan plan;
  Mapping short_target{0, 0, 1};
  EXPECT_THROW(execute_migration(problem, kCurrent, short_target, plan, 0.0),
               Error);
  Mapping bad_site = kCurrent;
  bad_site[0] = 9;
  EXPECT_THROW(execute_migration(problem, kCurrent, bad_site, plan, 0.0),
               Error);
  MigrationOptions bad = small_options();
  bad.chunk_bytes = 0;
  EXPECT_THROW(execute_migration(problem, kCurrent, kCurrent, plan, 0.0, bad),
               Error);
}

// ---------------------------------------------------------------------------
// Chaos soak: the full observe → detect → remap → migrate loop across
// seeded fault plans, certified case by case. Small here; the CI smoke
// and bench --chaos run the wide version.

TEST(ChaosSoakTest, SmallSoakHasNoInvariantViolations) {
  SoakOptions options;
  options.ranks = 8;
  options.app_rounds = 12;
  const SoakReport report = run_chaos_soak({1, 2, 3, 4, 5}, options);
  ASSERT_EQ(report.cases.size(), 5u);
  EXPECT_EQ(report.detected_cases + report.fallback_cases, 5);
  for (const SoakCase& c : report.cases) {
    EXPECT_TRUE(c.violations.empty())
        << "seed " << c.seed << ": " << c.violations.front().message;
    // Every case must end with no process on the dead site.
    for (SiteId s : c.report.final_mapping) EXPECT_NE(s, c.primary_site);
  }
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.total_committed, 0);
}

}  // namespace
}  // namespace geomap::migrate

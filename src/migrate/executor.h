#pragma once
// Virtual-time migration executor: actually carry out a remap plan.
//
// core/remap.h *prices* a recovery (bytes moved × alpha-beta time) and
// assumes the cutover is instantaneous and failure-free. This executor
// retires that assumption: given the mapping in effect and the mapping a
// remap chose, it schedules every process's state transfer as real flows
// on the degraded network — chunked, alpha-beta priced, contending with
// the application's own traffic on the same serializing links, bounded
// per-link concurrency — and drives each process through a two-phase
// protocol:
//
//   prepare — reserve one capacity slot on the destination site (the
//             process transiently occupies both its source slot and the
//             reservation; commits release the source, rollbacks release
//             the reservation, so residents + reservations never exceed
//             capacity);
//   copy    — resumable chunked transfer with the fault substrate's
//             loss/retry/backoff accounting (PR 1); a permanently dead
//             source switches to the cheapest surviving replica site and
//             resumes where it left off;
//   commit  — atomic cutover: the committed home flips source →
//             destination in one event. The commit handshake retries
//             lost control messages and is idempotent — a retried commit
//             cannot double-apply.
//
// When a destination dies *mid-copy* the transfer rolls back (reservation
// released, partial state discarded, source placement still committed)
// and re-prepares once the outage clears; when the fault is permanent the
// executor replans — re-invokes the geo-distributed mapper over the
// surviving sites as of that instant — and redirects the affected flows.
// Every protocol transition is journaled as a fault::MigrationEvent so
// fault::check_migration_invariants can certify the run afterwards.
//
// The executor is single-threaded, discrete-event, and deterministic:
// identical inputs produce identical reports bit-for-bit. The collector
// is opt-in; with nullptr the report is bit-identical to an
// uninstrumented run (asserted by tests).

#include <string>
#include <vector>

#include "common/types.h"
#include "core/geodist_mapper.h"
#include "fault/chaos.h"
#include "fault/fault_plan.h"
#include "mapping/problem.h"

namespace geomap::obs {
class Collector;
}

namespace geomap::recover {
class Wal;
}

namespace geomap::migrate {

struct MigrationOptions {
  /// Application state shipped per relocated process, and the chunk size
  /// it is broken into (each chunk is one resumable flow).
  Bytes bytes_per_process = 64.0 * kMiB;
  Bytes chunk_bytes = 8.0 * kMiB;

  /// Migration flows admitted concurrently per ordered site link; the
  /// link itself still serializes, so this bounds how much migration
  /// traffic may queue ahead of application traffic.
  int link_concurrency = 2;

  /// Loss detection / backoff for chunk and commit messages (PR 1
  /// accounting: a lost message costs detect_timeout to notice, then
  /// exponential backoff per reattempt; max_retries exhausted = timeout).
  fault::RetryPolicy retry;

  /// Whole-copy restarts a process may consume across rollbacks before
  /// it gives up and stays at its source.
  int max_copy_attempts = 4;

  /// Mapper re-invocations on permanent faults before the executor falls
  /// back to direct emergency placement.
  int max_replans = 4;

  /// Direct (mapper-less) placement attempts for a process stranded on a
  /// dead site after its copy budget ran out; exhausted → kAbandoned.
  /// The worst-case wire bytes per process are bounded by
  /// ceil(bytes_per_process / chunk_bytes) · chunk_bytes ·
  /// (1 + retry.max_retries) · (max_copy_attempts + max_replans +
  /// max_emergency_attempts) — the bound the invariant checker enforces.
  int max_emergency_attempts = 3;

  /// How long a prepare may wait for destination capacity before the
  /// migration rolls back (breaks reservation deadlocks between swapping
  /// processes).
  Seconds prepare_timeout = 120.0;

  /// Mapper configuration for replanning.
  core::GeoDistOptions mapper;

  /// Observability (opt-in, not owned): migration.* metrics, per-process
  /// virtual spans, and migration.bytes timeline series. nullptr runs
  /// the exact uninstrumented path with a bit-identical report.
  obs::Collector* collector = nullptr;

  /// Prepended to the per-link labels of the timeline series this
  /// executor records ("migration.bytes", "link.latency_ratio"). A
  /// multi-tenant run sets "t<k>:" per tenant (obs::tenant_link_label) so
  /// overlapping migrations render as separate lanes on one shared
  /// timeline; empty keeps the plain "src->dst" labels.
  std::string timeline_label_prefix;

  /// Opt-in crash consistency (not owned): with a WAL attached every
  /// protocol transition is appended as a mig_* record tagged with
  /// `wal_tenant`, and non-chunk transitions sync before the executor
  /// proceeds — the write-ahead discipline recovery's no-double-commit
  /// check relies on. nullptr keeps the exact unlogged path
  /// bit-identical.
  recover::Wal* wal = nullptr;
  int wal_tenant = -1;

  void validate() const;
};

enum class ProcessOutcome {
  kStayed,      // plan never moved it and no fault forced a move
  kCommitted,   // cut over to its final destination
  kRolledBack,  // copy abandoned; still committed at its (live) source
  kAbandoned,   // no feasible placement found — stranded (complete=false)
};

const char* to_string(ProcessOutcome outcome);

struct ProcessMigrationRecord {
  ProcessId process = -1;
  /// Committed home when execution began / when it ended.
  SiteId source = -1;
  SiteId final_home = -1;
  /// The target mapping's request (-1: the plan kept it in place).
  SiteId planned_dest = -1;
  ProcessOutcome outcome = ProcessOutcome::kStayed;
  int copy_attempts = 0;
  int rollbacks = 0;
  /// Serving-source switches to a surviving replica (source died).
  int source_switches = 0;
  int chunk_retries = 0;
  int chunk_timeouts = 0;
  int commit_retries = 0;
  /// Commit control retries exhausted — cutover forced through.
  bool commit_forced = false;
  Bytes bytes_sent = 0;
  Seconds prepare_time = -1;  // first reservation grant (-1: never)
  Seconds commit_time = -1;   // final cutover (-1: never committed)
  /// Cutover blackout: final chunk start → commit.
  Seconds downtime = 0;
};

struct MigrationReport {
  /// Committed home of every process when the executor finished.
  Mapping final_mapping;
  std::vector<ProcessMigrationRecord> processes;

  int processes_planned = 0;  // moves the target mapping requested
  int processes_committed = 0;
  int processes_rolled_back = 0;
  int processes_abandoned = 0;
  int rollbacks = 0;
  int replans = 0;
  int source_switches = 0;
  int chunk_retries = 0;
  int chunk_timeouts = 0;
  Bytes bytes_planned = 0;
  Bytes bytes_sent = 0;

  Seconds start_time = 0;
  /// Last event (application or migration) processed.
  Seconds finish_time = 0;
  /// Last migration activity minus start_time (0: nothing moved).
  Seconds migration_seconds = 0;
  /// Application replay duration from start_time, migration contention
  /// included — the makespan-with-migration the benches report.
  Seconds app_makespan = 0;
  /// Virtual seconds application flows spent parked because an endpoint's
  /// committed home was permanently dead (released at that endpoint's
  /// commit).
  Seconds app_blocked_seconds = 0;
  Seconds max_downtime = 0;
  Seconds total_downtime = 0;

  /// False when any process ended kAbandoned.
  bool complete = true;

  /// Protocol journal (time-ordered): every protocol transition, the
  /// input of fault::check_migration_invariants.
  std::vector<fault::MigrationEvent> events;
};

/// Carry out `target` starting from `current` at virtual time
/// `start_time`, under `plan`. The application's communication
/// (problem.comm) replays concurrently on the same links, each process
/// transmitting from its *committed* home as of each edge's issue time.
/// Throws InvalidArgument on malformed mappings or options.
MigrationReport execute_migration(const mapping::MappingProblem& problem,
                                  const Mapping& current, const Mapping& target,
                                  const fault::FaultPlan& plan,
                                  Seconds start_time,
                                  const MigrationOptions& options = {});

}  // namespace geomap::migrate

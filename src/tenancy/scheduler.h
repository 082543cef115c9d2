#pragma once
// Remap/migration scheduler: who migrates first when a region dies under
// K tenants.
//
// A regional outage makes every affected tenant want to remap at once —
// a migration storm. Letting them all go simultaneously oversubscribes
// the surviving sites (every remap sees the same free slots) and floods
// the links; making RemapInfeasible fatal aborts tenants that would have
// fit five virtual seconds later, after someone else's copy committed.
// The scheduler turns the storm into a drain:
//
//   * tenants queue RemapRequests; at most `max_concurrent` migrations
//     are in flight at a time;
//   * a grant carves the tenant a *conservative capacity view*: the
//     shared capacities minus every other tenant's committed residents
//     minus every in-flight tenant's peak (residents + reservations)
//     ledger — so concurrently running executors can never collectively
//     oversubscribe a site, by construction;
//   * RemapInfeasible is a queue-and-retry signal: the request re-enters
//     the queue with exponential virtual-time backoff
//     (core::RemapRetryPolicy) and gives up only after max_attempts —
//     the storm drains instead of aborting;
//   * the grant order is a documented *total* order per policy, so
//     identical seeds + policy produce byte-identical journals:
//       - kFifo:      (request_time, tenant id)
//       - kSeverity:  (higher severity first, then tenant id)
//       - kFairShare: (more tokens remaining first, then higher
//                      severity, then tenant id); a grant costs one
//                      token per process the tenant maps, budgets refill
//                      at token_refill_per_second, and a tenant that
//                      cannot afford its grant waits until refill makes
//                      it affordable.

#include <vector>

#include "common/types.h"
#include "core/remap.h"
#include "fault/chaos.h"
#include "migrate/executor.h"
#include "tenancy/substrate.h"

namespace geomap::obs {
class Collector;
}

namespace geomap::recover {
class Wal;
struct RecoveredControlPlane;
}  // namespace geomap::recover

namespace geomap::tenancy {

enum class SchedulerPolicy {
  kFifo,
  kSeverity,
  kFairShare,
};

const char* to_string(SchedulerPolicy policy);

struct SchedulerOptions {
  SchedulerPolicy policy = SchedulerPolicy::kFifo;
  /// Migrations in flight at once. 1 fully serializes the storm.
  int max_concurrent = 2;
  /// Backoff/give-up schedule for infeasible grants (the queue-and-retry
  /// path). max_attempts counts grant attempts per request.
  core::RemapRetryPolicy retry;
  /// Fair-share token budget each tenant starts with and the refill
  /// rate. A grant costs one token per process the tenant maps.
  double fair_share_tokens = 16.0;
  double token_refill_per_second = 0.5;
  /// Remap knobs (mapper, bytes priced per process).
  core::RemapOptions remap;
  /// Executor knobs for the granted migrations. The scheduler overrides
  /// collector and timeline_label_prefix per tenant ("t<k>:") when
  /// `collector` below is set, and always records events.
  migrate::MigrationOptions migrate;
  /// Observability (opt-in, not owned): tenant.* series (queue_wait,
  /// attempts) plus tenant-labeled executor lanes on one shared timeline.
  obs::Collector* collector = nullptr;

  /// Crash consistency (opt-in, not owned): with a WAL attached the
  /// scheduler appends sched_request records for the queue, a
  /// sched_grant record (decision inputs: at-grant mapping, remap
  /// target, capacity view) durable *before* each granted migration
  /// executes, a sched_finish record after it, and sched_requeue /
  /// sched_give_up records on the retry path — each synced before the
  /// scheduler proceeds. The executor inherits the handle for its mig_*
  /// journal. nullptr keeps the exact unlogged path bit-identical.
  recover::Wal* wal = nullptr;

  void validate() const;
};

/// One tenant asking to leave the dead region.
struct RemapRequest {
  int tenant = -1;
  Seconds request_time = 0;
  /// Caller-defined urgency (the soak uses the fraction of the tenant's
  /// processes homed on the dead site). Only the relative order matters.
  double severity = 0;
};

struct TenantRecovery {
  int tenant = -1;
  Seconds request_time = 0;
  double severity = 0;
  /// Grant attempts consumed (> 1 means RemapInfeasible requeues).
  int attempts = 0;
  bool granted = false;
  /// Every attempt came back infeasible — the tenant stays put, homed on
  /// the dead site (a cross-tenant invariant violation the soak surfaces
  /// honestly rather than hiding).
  bool gave_up = false;
  Seconds granted_at = -1;
  /// Migration activity end (granted_at when nothing moved).
  Seconds finish_time = -1;
  migrate::MigrationReport report;
};

struct StormReport {
  /// Indexed by request order (not tenant id).
  std::vector<TenantRecovery> recoveries;
  /// Tenant ids in grant order — the object of the determinism tests.
  std::vector<int> grant_order;
  /// Last migration finish minus earliest request: how long the storm
  /// took to drain.
  Seconds storm_drain_seconds = 0;
  /// RemapInfeasible requeues across all requests.
  int requeues = 0;
  int gave_up = 0;
};

/// Drain a remap storm: grant requests per the policy, execute each
/// granted migration under `plan` with a conservative capacity view, and
/// commit the resulting mappings back into `substrate`. Deterministic:
/// identical (substrate, plan, requests, options) produce byte-identical
/// reports and journals. Requests must name distinct valid tenants.
///
/// With `resume` non-null the storm continues a crashed predecessor
/// from its replayed WAL (recover::replay_wal): the durable
/// sched_request records must be a prefix of `requests` (their queue
/// events are not re-emitted — recovery re-emits them from the WAL),
/// requeues and give-ups restore the queue state (a backoff timer
/// pending at the crash fires once, at its recorded instant), finished
/// grants are replayed into the ledgers without re-executing their
/// migrations, an interrupted grant is redone idempotently through the
/// same grant step as a live one, and the remaining queue drains
/// normally. The resumed report is equal to the uninterrupted run's
/// wherever the WAL recorded the outcome (grant order, attempts, finish
/// times, final mappings). Throws InvalidArgument when the WAL does not
/// fit `requests`.
StormReport run_remap_storm(
    Substrate& substrate, const fault::FaultPlan& plan, SiteId failed_site,
    const std::vector<RemapRequest>& requests, const SchedulerOptions& options,
    const recover::RecoveredControlPlane* resume = nullptr);

}  // namespace geomap::tenancy

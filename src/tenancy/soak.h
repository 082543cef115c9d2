#pragma once
// Multi-tenant chaos soak: observe → detect → remap-storm → migrate for
// 100+ tenants sharing one substrate, under fire, with every journal
// certified.
//
// One case is one complete story. Its stages exist once, in
// run_soak_case; a write-ahead log (recover::Wal) is optional, and the
// steps marked [WAL] run only when recover::run_recoverable_case
// attaches one (run_multitenant_soak_case runs without):
//
//   1. make_substrate synthesizes K tenants on a shared cloud and maps
//      them capacity-aware; solo replays anchor the fairness baseline;
//      [WAL] a fresh run writes its identity (run_begin); a resumed run
//      checks the predecessor's identity against it, seeds the new
//      generation with the replayed history and marks the boundary
//      (recovery_begin); soak/case_start is emitted, and [WAL] a resumed
//      run re-emits the events its predecessor already announced;
//   2. a healthy shared replay (sim::replay_multitenant) calibrates the
//      virtual horizon; a chaos plan (fault/chaos.h) is drawn for it;
//   3. the shared replay reruns under the plan with telemetry on —
//      force-through delivery records the link.timeout points a
//      permanently dead region produces;
//   4. the degradation detector is fed the shared timeline's link
//      samples in time order (obs::collect_link_samples);
//      core::vote_suspected_site names the suspect (falling back to the
//      oracle when detection saw nothing or accused the wrong site —
//      recorded honestly, the soak's subject is the scheduler).
//      [WAL] Episodes are logged, snapshots taken every
//      snapshot_every_samples samples, and the decision is made durable
//      before it is announced. A run resumed before the decision
//      restores the detector and re-feeds it from the snapshot's sample
//      watermark; one resumed after it adopts the durable decision and
//      skips steps 3–4;
//   5. every tenant homed on the dead site files a RemapRequest
//      (severity = fraction of its ranks stranded) and the scheduler
//      drains the storm under the configured policy; [WAL] a resumed
//      storm continues from the replayed control plane itself;
//   6. every granted journal replays through
//      fault::check_migration_invariants, and the merged journals (plus
//      bystander tenants' static placements) through
//      check_cross_tenant_invariants; the post-recovery shared replay
//      yields per-tenant stretch and Jain's index; with a collector,
//      soak/case_done closes the case and its incidents are built and
//      scored.
//
// Deterministic end to end: every stage is seeded or discrete-event, so
// one (seed, options) pair always produces byte-identical journals —
// which is what makes the scheduler-determinism tests meaningful.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "fault/chaos.h"
#include "obs/incident.h"
#include "tenancy/scheduler.h"
#include "tenancy/substrate.h"

namespace geomap::recover {
class Wal;
struct RecoveredControlPlane;
}  // namespace geomap::recover

namespace geomap::tenancy {

struct MultiTenantSoakOptions {
  SubstrateOptions substrate;
  /// Chaos shape; num_sites and horizon are filled in per case. The
  /// primary outage is the storm trigger.
  fault::ChaosOptions chaos;
  SchedulerOptions scheduler;
  /// Rounds each tenant's app body re-issues its communication pattern
  /// in the calibration and observation replays. One pass often drains
  /// before a mid-horizon outage even starts; several rounds keep
  /// traffic flowing past it so the detector gets post-outage timeouts.
  /// The stretch replays stay single-pass (both sides of the ratio).
  int app_rounds = 6;
  /// Migrated state per process — kept small so a 100-tenant storm
  /// drains within a few horizons.
  Bytes bytes_per_process = 2.0 * kMiB;
  Bytes chunk_bytes = 512.0 * 1024;

  /// Opt-in external observability. With a collector attached the case
  /// streams lifecycle events (soak/case_start, soak/detect,
  /// soak/case_done), hooks the detector's onset/clear emissions into
  /// the same event log, and routes the scheduler's telemetry there
  /// (instead of the case-internal registry that is otherwise discarded).
  /// nullptr — the default — keeps the historical, fully self-contained
  /// behavior bit-identical.
  obs::Collector* collector = nullptr;

  void validate() const;
};

struct MultiTenantSoakCase {
  std::uint64_t seed = 0;
  int tenants = 0;
  SiteId primary_site = -1;
  Seconds outage_time = 0;

  /// Detection outcome (honest: the oracle fallback still runs the storm).
  bool detected = false;
  bool suspected_correct = false;
  Seconds detect_time = 0;

  int requests = 0;
  StormReport storm;
  /// Post-recovery stretch vs solo baselines, all tenants.
  FairnessReport fairness;

  /// Journals replayed through a checker (granted tenants + 1 cross-
  /// tenant pass).
  int invariants_checked = 0;
  /// Per-tenant and cross-tenant violations, merged ("tenant k: ..."-
  /// prefixed for the per-tenant ones).
  std::vector<fault::InvariantViolation> violations;

  /// Incident reconstruction over the case's event slice (empty without
  /// a collector) and its truth-scored attribution (cases == 1 when
  /// scored).
  std::vector<obs::Incident> incidents;
  obs::AttributionTotals attribution;
  bool attribution_scored = false;
};

struct MultiTenantSoakReport {
  std::vector<MultiTenantSoakCase> cases;
  int seeds_run = 0;
  int total_violations = 0;
  int total_invariants_checked = 0;
  int total_requeues = 0;
  int total_gave_up = 0;
  int detected_cases = 0;
  /// Attribution totals merged over every scored case (zeros when the
  /// soak ran without a collector).
  obs::AttributionTotals attribution;
};

MultiTenantSoakCase run_multitenant_soak_case(
    std::uint64_t seed, const MultiTenantSoakOptions& options);

/// The write-ahead log a case runs against (the [WAL] steps above).
struct SoakCaseWal {
  /// Not owned; nullptr runs the plain case. Requires a collector.
  recover::Wal* wal = nullptr;
  /// A crashed predecessor's replayed log (not owned); nullptr starts
  /// the run fresh. Requires `wal`.
  const recover::RecoveredControlPlane* resume = nullptr;
  /// Records read back from the predecessor's log, for the
  /// recovery_begin marker.
  std::size_t replayed = 0;
  /// Samples between detector snapshots; 0 keeps only the snapshot
  /// that closes the detector phase.
  int snapshot_every_samples = 0;
};

struct SoakCaseRun {
  MultiTenantSoakCase soak_case;
  /// Last granted migration's end (detect_time when none ran): the
  /// instant soak/case_done is stamped with.
  Seconds recovery_end = 0;
  /// Wall seconds spent opening the log generation: run_begin or
  /// recovery_begin, case_start and re-emission.
  double open_seconds = 0;
};

/// The case's stages, once. run_multitenant_soak_case calls it without
/// a WAL; recover::run_recoverable_case with one.
SoakCaseRun run_soak_case(std::uint64_t seed,
                          const MultiTenantSoakOptions& options,
                          const SoakCaseWal& log);

MultiTenantSoakReport run_multitenant_soak(
    const std::vector<std::uint64_t>& seeds,
    const MultiTenantSoakOptions& options);

}  // namespace geomap::tenancy

#pragma once
// Chaos soak for the full recovery loop: observe → detect → remap →
// migrate, end to end, across many seeded random fault plans.
//
// One soak case is one complete story:
//
//   1. synthesize a deployment (synthetic multi-region cloud, random
//      sparse communication pattern, optional pins) and map it with the
//      geo-distributed mapper;
//   2. run the application once healthy on the threaded runtime to
//      calibrate the virtual horizon;
//   3. draw a chaos plan (fault/chaos.h) for that horizon — one primary
//      permanent site outage plus brownouts, transient outages, message
//      loss, and faults aimed into the expected migration window — and
//      rerun the application under it with telemetry on;
//   4. feed the recorded timeline to the degradation detector and
//      recover with core::remap_on_detection (falling back to the oracle
//      remap_on_outage when detection saw nothing actionable or
//      implicated the wrong site);
//   5. execute the chosen plan with migrate::execute_migration under the
//      same chaos plan — so the recovery itself is hit by the faults —
//      and certify the journal with fault::check_migration_invariants.
//
// A soak over N seeds passing with zero violations is the repo's
// evidence that recovery is itself recoverable. Virtual times in the
// threaded runs vary up to link-queueing order, so soak results are
// statistical, not byte-stable — the deterministic bench mode
// (bench_fault_recovery --migrate) is the regression baseline, this is
// the safety net.

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "fault/chaos.h"
#include "migrate/executor.h"
#include "obs/incident.h"

namespace geomap::migrate {

struct SoakOptions {
  int ranks = 12;
  int num_sites = 4;
  /// Rounds of the synthetic application body (allreduce + ring exchange
  /// + compute) — sizes the virtual horizon.
  int app_rounds = 24;
  /// Fraction of processes pinned by data-movement constraints.
  double constraint_ratio = 0.15;
  /// Migrated state per process; kept small so a soak case's migration
  /// finishes within a few horizons.
  Bytes bytes_per_process = 4.0 * kMiB;
  Bytes chunk_bytes = 1.0 * kMiB;
  /// Chaos shape (num_sites / horizon / migration window are filled in
  /// per case; the counts and severities are taken from here).
  fault::ChaosOptions chaos;
  /// Executor knobs (bytes_per_process / chunk_bytes above and
  /// `collector` below win).
  MigrationOptions migrate;

  /// Opt-in external observability. With a collector attached the case
  /// streams lifecycle events (soak/case_start, soak/detect,
  /// soak/case_done) next to the detector onsets and migration protocol
  /// transitions, then reconstructs the case's incidents
  /// (obs::build_incidents), scores their blame against the chaos plan's
  /// truth windows (fault::score_attribution), and appends both to the
  /// collector's incident log. The executor records into the same
  /// collector. nullptr — the default — keeps the historical behavior
  /// bit-identical.
  obs::Collector* collector = nullptr;

  void validate() const;
};

struct SoakCase {
  std::uint64_t seed = 0;
  SiteId primary_site = -1;
  Seconds outage_time = 0;
  Seconds healthy_makespan = 0;
  /// Detection produced an actionable, consistent recovery; false = the
  /// oracle fallback ran (nothing detected, or the wrong site accused).
  bool detected = false;
  /// The detector's suspect matched the site that actually died.
  bool suspected_correct = false;
  Seconds remap_time = 0;
  MigrationReport report;
  std::vector<fault::InvariantViolation> violations;

  /// Incident reconstruction over the case's event slice (empty without
  /// a collector) and its truth-scored attribution (cases == 1 when
  /// scored; see SoakOptions::collector).
  std::vector<obs::Incident> incidents;
  obs::AttributionTotals attribution;
  bool attribution_scored = false;
};

struct SoakReport {
  std::vector<SoakCase> cases;
  int total_violations = 0;
  int detected_cases = 0;
  int fallback_cases = 0;
  int total_committed = 0;
  int total_rollbacks = 0;
  int total_replans = 0;
  int total_abandoned = 0;
  /// Attribution totals merged over every scored case (zeros when the
  /// soak ran without a collector).
  obs::AttributionTotals attribution;

  bool ok() const { return total_violations == 0; }
};

/// Run one seeded case of the full loop. Deterministic up to the
/// threaded runtime's link-queueing order (the invariants must hold for
/// every ordering; the checker runs on the actual journal).
SoakCase run_soak_case(std::uint64_t seed, const SoakOptions& options = {});

/// Run the loop for every seed and aggregate.
SoakReport run_chaos_soak(const std::vector<std::uint64_t>& seeds,
                          const SoakOptions& options = {});

}  // namespace geomap::migrate

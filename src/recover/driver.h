#pragma once
// Crash-consistent soak driver: the multi-tenant soak case with the
// control-plane WAL attached, plus the exhaustive crash-matrix soak.
//
// run_recoverable_case runs one observe → detect → storm → certify case
// — tenancy::run_soak_case, the same stages the plain soak runs — with
// every control-plane decision written ahead to a WAL in `wal_dir`.
// The driver itself only reads and replays the WAL, attaches it to the
// case, checks the redone grant's journal, seals the run and audits the
// log. When the directory already holds a crashed run's log the case
// *resumes* instead of restarting:
//
//   * the WAL is replayed (recover::replay_wal); the case checks the
//     run identity, seeds a new WAL generation with the sanitized
//     history behind a recovery_begin marker, and re-emits the
//     already-announced events into the fresh event log through the
//     emitters the live run calls (recover::reemit_events);
//   * the detector is restored from the latest snapshot's checkpoint and
//     re-fed from its sample watermark (pre-decision crashes) or skipped
//     entirely, observation replay included, in favour of the durable
//     decision record (post-decision);
//   * the storm (tenancy::run_remap_storm) reads the replayed control
//     plane itself: requeues and give-ups restore the queue, finished
//     grants are replayed into the ledgers, an interrupted grant is
//     redone from its sched_grant record through the live grant step,
//     and the driver checks that the redone journal extends the durable
//     prefix field-for-field (no double commit, no lost grant);
//   * everything deterministic (substrate, calibration, chaos plan,
//     telemetry) is recomputed from the seed, so the resumed case's
//     final events / incidents / fairness match the uninterrupted run's.
//
// The caller supplies a *fresh* collector per process generation (a real
// restart starts with an empty event log); re-emission fills it.
//
// run_crash_matrix is the acceptance harness: for every registered crash
// point it arms the injector, runs the case until the point kills it,
// recovers in a fresh "process" (new collector, same WAL dir), and
// asserts the recovered digest — detection outcome, request outcomes,
// grant order, final mappings, violations, fairness, and the canonical
// event stream — equals the uninterrupted baseline's.

#include <cstdint>
#include <string>
#include <vector>

#include "recover/recovery.h"
#include "tenancy/soak.h"

namespace geomap::recover {

struct RecoverableSoakOptions {
  /// The underlying soak shape. `soak.collector` must be non-null — the
  /// driver streams and re-emits through it.
  tenancy::MultiTenantSoakOptions soak;
  /// WAL directory; created if missing, resumed if it holds records.
  std::string wal_dir;
  /// Forwarded to the Wal (tests that hammer hundreds of tiny WALs turn
  /// fsync off; the in-process crash model is unchanged either way).
  WalOptions wal;
  /// Detector-phase snapshot cadence (samples between compacting
  /// snapshots). 0 disables mid-feed snapshots; the post-decision
  /// snapshot is always taken.
  int snapshot_every_samples = 64;

  void validate() const;
};

struct RecoverableCaseResult {
  tenancy::MultiTenantSoakCase soak_case;

  /// This generation continued a crashed predecessor's WAL.
  bool resumed = false;
  /// Recoveries performed so far including this one (0 for a fresh run).
  int recoveries = 0;
  std::size_t wal_records_replayed = 0;
  double wal_replay_seconds = 0;
  /// Resume-specific work: seeding, re-emission, detector re-arm.
  double recovery_seconds = 0;

  /// Prefix-consistency and post-run WAL audit failures
  /// (check_recovery_invariants). Empty = crash-consistent.
  std::vector<std::string> recovery_violations;

  /// CRC32 of the case's canonical outcome (decision, request outcomes,
  /// grant order, final mappings, violations, fairness, incident count,
  /// canonically-sorted events without sequence numbers). Identical for
  /// an uninterrupted run and any crash+recover execution of the same
  /// (seed, options).
  std::uint32_t digest = 0;
};

RecoverableCaseResult run_recoverable_case(std::uint64_t seed,
                                           const RecoverableSoakOptions& options);

struct CrashMatrixOptions {
  /// Per-attempt `soak.collector` is overridden with a fresh collector;
  /// `wal_dir` is wiped between points.
  RecoverableSoakOptions base;
  std::uint64_t seed = 1;
  /// Crash points to exercise; empty = the full registered catalog.
  std::vector<std::string> points;
  /// Kill → recover attempts per point before giving up.
  int max_attempts = 4;

  void validate() const;
};

struct CrashMatrixCase {
  std::string point;
  /// The armed point actually fired (a point a given workload never
  /// reaches completes on the first attempt and is reported honestly).
  bool fired = false;
  bool completed = false;
  int recoveries = 0;
  bool digest_match = false;
  std::uint32_t digest = 0;
  std::size_t wal_records_replayed = 0;
  double wal_replay_seconds = 0;
  double recovery_seconds = 0;
  std::vector<std::string> recovery_violations;

  bool clean() const {
    return completed && digest_match && recovery_violations.empty();
  }
};

struct CrashMatrixReport {
  std::uint32_t baseline_digest = 0;
  std::vector<CrashMatrixCase> cases;
  int points_fired = 0;
  int points_clean = 0;
  bool all_clean = true;
};

CrashMatrixReport run_crash_matrix(const CrashMatrixOptions& options);

}  // namespace geomap::recover

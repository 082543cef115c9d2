#pragma once
// WAL replay: fold a crashed control plane's log back into resumable
// state.
//
// replay_wal() folds the record stream — snapshots reset the effective
// history to what they embed, recovery_begin markers sanitize it the
// same way the live recovery did — and decodes the result into a
// RecoveredControlPlane: the detector checkpoint + sample watermark to
// re-arm from, the detection decision, the requests, requeues, give-ups
// and grants the storm resumes from, and the sanitized effective history that
// seeds the next WAL generation (so its snapshots keep folding the
// pre-crash past).
//
// Sanitization implements the two no-duplicate rules recovery depends
// on:
//
//   * pre-decision detector tail — episode records written after the
//     last snapshot are dropped when no detection decision exists yet:
//     re-feeding samples from the watermark regenerates (and re-logs)
//     them identically, so keeping them would double-emit. Once a
//     decision exists the detector is never re-fed live and the records
//     are kept for re-emission instead.
//
//   * open-grant journal prefix — mig_* records of a grant with no
//     closing sched_finish / sched_requeue / sched_give_up are removed
//     from the effective history (the redo re-executes the grant and
//     re-logs them) and returned separately as `interrupted_prefix`:
//     the durable prefix the redone journal must extend byte-for-byte
//     (journal_prefix_consistent), which is exactly the
//     no-double-commit / no-lost-grant guarantee.
//
// reemit_events() streams the sanitized history back into an event log,
// in WAL append order (== live emission order), through the emitters
// the live run calls (obs::emit_detector_onset / emit_detector_clear,
// migrate::emit_migration_event, and the emit_* of recover/records.h),
// so a recovered run's events.jsonl is byte-identical to the
// uninterrupted run's under deterministic profiles.
// tenancy::run_remap_storm reads the queue, grant and in-flight state
// straight from the RecoveredControlPlane.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/detector.h"
#include "obs/eventlog.h"
#include "recover/records.h"
#include "recover/wal.h"

namespace geomap::recover {

/// One durable grant and everything the log knows about it.
struct RecoveredGrant {
  SchedGrantRecord grant;
  /// Journal records, WAL order, with event times filled in. Empty for
  /// the interrupted grant (its durable prefix is extracted).
  std::vector<MigRecord> migs;
  bool finished = false;
  SchedFinishRecord finish;
  /// Closed by a requeue / give-up instead of a finish (the granted
  /// migration never ran to completion and was not charged).
  bool requeued = false;
};

struct RecoveredControlPlane {
  bool has_run = false;
  RunBeginRecord run;
  /// recovery_begin markers seen — how many times this run has already
  /// crashed and resumed.
  int recoveries = 0;
  bool run_complete = false;

  /// Latest snapshot's sample-stream watermark and detector state.
  std::size_t watermark = 0;
  bool has_detector = false;
  obs::DetectorCheckpoint detector;

  bool has_decision = false;
  DetectDecisionRecord decision;

  std::vector<SchedRequestRecord> requests;
  std::vector<SchedRequeueRecord> requeues;
  std::vector<SchedGiveUpRecord> give_ups;
  /// Grants in WAL (= real grant) order.
  std::vector<RecoveredGrant> grants;

  /// Last grant is open (sched_grant durable, no closing record) —
  /// resume must redo it.
  bool has_interrupted = false;
  /// The open grant's durable journal prefix, for the
  /// prefix-consistency check against the redo.
  std::vector<MigRecord> interrupted_prefix;

  /// Sanitized effective history: seed_history() this into the next
  /// generation's WAL, reemit_events() it into the fresh event log.
  std::vector<HistRecord> effective;
};

/// Fold a WAL record stream (read_wal output) into resumable state.
/// Throws WalCorrupt when a CRC-valid record fails to decode.
RecoveredControlPlane replay_wal(const std::vector<WalRecord>& records);

/// Re-emit the sanitized history's streamed events into `elog` through
/// the live run's emitters, in the same order. Chunk records stay silent
/// (live chunk journaling never streams either).
void reemit_events(const RecoveredControlPlane& rcp, obs::EventLog& elog);

/// True when `prefix` is an exact field-for-field prefix of the redone
/// journal `redone`. On mismatch, `why` (optional) gets a description.
bool journal_prefix_consistent(const std::vector<MigRecord>& prefix,
                               const std::vector<fault::MigrationEvent>& redone,
                               std::string* why = nullptr);

/// Post-hoc structural audit of a full WAL: decodes every record, folds
/// it, and checks the recovery invariants — attempts strictly
/// increasing per tenant, every grant closed exactly once (one trailing
/// open grant allowed only while the run is incomplete), at most one
/// commit per process per grant, journal records only inside an open
/// grant and tagged with its tenant, a complete run ends with run_end
/// and resolves every request (no lost grants). Returns human-readable
/// violations; empty = clean.
std::vector<std::string> check_recovery_invariants(
    const std::vector<WalRecord>& records);

}  // namespace geomap::recover

#pragma once
// Typed payload codecs for the control-plane WAL, and the streamed
// events of the records the soak and the scheduler write.
//
// Each record type has one encoder and one decoder; each record the
// live run also streams has one emitter, which the live run and crash
// recovery (recover::reemit_events) both call. Records written below
// geomap_recover in the link graph use the lower definitions these
// codecs share: obs::write_episode writes the detector's episodes (its
// WAL records and a checkpoint's episode list), encode_mig_payload
// (recover/wal.h) the executor's mig_* records, and
// obs::emit_detector_onset / emit_detector_clear and
// migrate::emit_migration_event stream their events. soak/detect's
// fields live in migrate::emit_detect_decision, which the migration
// soak announces its own decision with too.
//
// Every decoder throws WalCorrupt on a structurally broken payload: a
// record that passed its line CRC but does not decode is corruption,
// not a torn tail, and recovery must refuse to guess.

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "fault/chaos.h"
#include "migrate/executor.h"
#include "obs/detector.h"
#include "recover/wal.h"

namespace geomap::recover {

/// run_begin — identity of the case this WAL belongs to; recovery
/// refuses to resume a WAL whose identity does not match the caller's.
struct RunBeginRecord {
  std::uint64_t seed = 0;
  int tenants = 0;
  int sites = 0;
  std::string policy;
};

/// detector_onset / detector_clear — the episode exactly as announced
/// (onset carries at-detect severity/confidence, clear the final ones).
struct DetectorEpisodeRecord {
  obs::DegradationEvent event;
};

/// detect_decision — the detector vote the storm acted on.
struct DetectDecisionRecord {
  bool detected = false;
  bool suspected_correct = false;
  SiteId suspect = -1;
  SiteId failed_site = -1;
  Seconds outage_time = 0;
  Seconds detect_time = 0;
};

/// sched_request — one tenant's remap request as enqueued.
struct SchedRequestRecord {
  int tenant = -1;
  Seconds request_time = 0;
  double severity = 0;
};

/// sched_grant — the full decision input, durable *before* the grant
/// executes: redo re-runs execute_migration deterministically from it.
struct SchedGrantRecord {
  int tenant = -1;
  Seconds granted_at = 0;
  int attempts = 0;
  Mapping current;
  Mapping target;
  std::vector<double> view_capacities;
};

struct SchedRequeueRecord {
  int tenant = -1;
  Seconds t = 0;
  int attempts = 0;
  Seconds next_eligible = 0;
};

struct SchedGiveUpRecord {
  int tenant = -1;
  Seconds t = 0;
  int attempts = 0;
};

/// sched_finish — the grant's outcome; closes the matching sched_grant
/// and carries everything the streamed scheduler/grant event holds.
struct SchedFinishRecord {
  int tenant = -1;
  Seconds granted_at = 0;
  Seconds finish_time = 0;
  Seconds migration_seconds = 0;
  Seconds queue_wait = 0;
  int attempts = 0;
  Mapping final_mapping;
};

/// mig_* — one migration protocol transition, tagged with the owning
/// tenant. `downtime` is meaningful for commits only.
struct MigRecord {
  int tenant = -1;
  fault::MigrationEvent event;
  Seconds downtime = 0;
};

/// The "state" half of a snapshot payload: the sample-stream watermark
/// plus the detector's complete re-armable state.
struct SnapshotStateRecord {
  std::size_t watermark = 0;
  bool has_detector = false;
  obs::DetectorCheckpoint detector;
};

// -- Encoders (single-line JSON payloads) --
std::string encode_run_begin(const RunBeginRecord& r);
std::string encode_detector_episode(const obs::DegradationEvent& e,
                                    Seconds end);
std::string encode_detect_decision(const DetectDecisionRecord& r);
std::string encode_sched_request(const SchedRequestRecord& r);
std::string encode_sched_grant(const SchedGrantRecord& r);
std::string encode_sched_requeue(const SchedRequeueRecord& r);
std::string encode_sched_give_up(const SchedGiveUpRecord& r);
std::string encode_sched_finish(const SchedFinishRecord& r);
std::string encode_mig(const MigRecord& r);
std::string encode_snapshot_state(const SnapshotStateRecord& r);

// -- Streamed events, one emitter per kind --
/// soak/detect, stamped at the decision's detect_time (its fields are
/// migrate::emit_detect_decision's, which the migration soak shares).
void emit_detect_decision(obs::EventLog& log, const DetectDecisionRecord& r);
/// scheduler/queue, stamped at the request time.
void emit_sched_request(obs::EventLog& log, const SchedRequestRecord& r);
/// scheduler/grant: the grant's outcome, stamped at the grant instant.
void emit_sched_finish(obs::EventLog& log, const SchedFinishRecord& r);
/// scheduler/requeue and scheduler/give_up, stamped at the attempt.
void emit_sched_requeue(obs::EventLog& log, const SchedRequeueRecord& r);
void emit_sched_give_up(obs::EventLog& log, const SchedGiveUpRecord& r);

// -- Decoders --
RunBeginRecord decode_run_begin(const std::string& payload);
DetectorEpisodeRecord decode_detector_episode(const std::string& payload);
DetectDecisionRecord decode_detect_decision(const std::string& payload);
SchedRequestRecord decode_sched_request(const std::string& payload);
SchedGrantRecord decode_sched_grant(const std::string& payload);
SchedRequeueRecord decode_sched_requeue(const std::string& payload);
SchedGiveUpRecord decode_sched_give_up(const std::string& payload);
SchedFinishRecord decode_sched_finish(const std::string& payload);
MigRecord decode_mig(WalRecordType type, const std::string& payload);
SnapshotStateRecord decode_snapshot_state(const std::string& payload);

/// Split a kSnapshot payload {"state": ..., "history": [...]} into the
/// decoded state and the embedded effective history.
struct SnapshotRecord {
  SnapshotStateRecord state;
  std::vector<HistRecord> history;
};
SnapshotRecord decode_snapshot(const std::string& payload);

/// Rebuild the MigrationReport-shaped summary of a finished grant from
/// its durable records: journal events in WAL order, final mapping from
/// the commits applied to the at-grant mapping, counters folded from
/// the events. Per-process forensics (copy attempts, byte counts) are
/// not recoverable from the journal alone and stay zeroed — the
/// recovered report is for invariant checking and re-emission, not
/// byte-level report equality.
migrate::MigrationReport rebuild_migration_report(
    const std::vector<MigRecord>& records, const Mapping& at_grant,
    const Mapping& target, Seconds granted_at, Seconds finish_time);

}  // namespace geomap::recover

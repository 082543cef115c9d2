#include "recover/recovery.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "common/error.h"

namespace geomap::recover {

namespace {

bool is_detector_record(WalRecordType t) {
  return t == WalRecordType::kDetectorOnset ||
         t == WalRecordType::kDetectorClear;
}

bool is_mig_record(WalRecordType t) {
  switch (t) {
    case WalRecordType::kMigReserve:
    case WalRecordType::kMigRelease:
    case WalRecordType::kMigChunk:
    case WalRecordType::kMigCommit:
    case WalRecordType::kMigRollback:
    case WalRecordType::kMigReplan:
      return true;
    default:
      return false;
  }
}

/// Tenant a queue-path record names; -1 when the type carries none.
int record_tenant(const HistRecord& h) {
  switch (h.type) {
    case WalRecordType::kSchedFinish:
      return decode_sched_finish(h.payload).tenant;
    case WalRecordType::kSchedRequeue:
      return decode_sched_requeue(h.payload).tenant;
    case WalRecordType::kSchedGiveUp:
      return decode_sched_give_up(h.payload).tenant;
    default:
      return -1;
  }
}

struct SanitizeResult {
  std::vector<HistRecord> history;
  std::vector<MigRecord> extracted;  // open grant's journal prefix
  bool had_open_grant = false;
  /// Index shift of the snapshot boundary after removals below it.
  std::size_t removed_below_snap = 0;
};

/// Apply the recovery sanitization rules to an effective history (see
/// the header comment). `snap_len` is the length of the prefix that
/// came from the last snapshot (0: none).
SanitizeResult sanitize(const std::vector<HistRecord>& in,
                        std::size_t snap_len) {
  bool has_decision = false;
  for (const HistRecord& h : in) {
    if (h.type == WalRecordType::kDetectDecision) has_decision = true;
  }

  // Locate the trailing open grant, if any.
  std::ptrdiff_t open_grant = -1;
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i].type != WalRecordType::kSchedGrant) continue;
    const int tenant = decode_sched_grant(in[i].payload).tenant;
    bool closed = false;
    for (std::size_t j = i + 1; j < in.size(); ++j) {
      if (record_tenant(in[j]) == tenant) {
        closed = true;
        break;
      }
    }
    open_grant = closed ? -1 : static_cast<std::ptrdiff_t>(i);
  }

  SanitizeResult out;
  out.had_open_grant = open_grant >= 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const HistRecord& h = in[i];
    const bool stale_detector = !has_decision && i >= snap_len &&
                                is_detector_record(h.type);
    const bool open_mig = open_grant >= 0 &&
                          i > static_cast<std::size_t>(open_grant) &&
                          is_mig_record(h.type);
    if (stale_detector) continue;
    if (open_mig) {
      MigRecord m = decode_mig(h.type, h.payload);
      m.event.t = h.t;
      out.extracted.push_back(std::move(m));
      if (i < snap_len) out.removed_below_snap += 1;
      continue;
    }
    out.history.push_back(h);
  }
  return out;
}

}  // namespace

RecoveredControlPlane replay_wal(const std::vector<WalRecord>& records) {
  // Fold the stream: snapshots reset the effective history, each
  // recovery_begin re-applies the sanitization the live recovery did at
  // that boundary.
  std::vector<HistRecord> effective;
  std::size_t snap_len = 0;
  RecoveredControlPlane rcp;
  for (const WalRecord& r : records) {
    switch (r.type) {
      case WalRecordType::kSnapshot: {
        SnapshotRecord snap = decode_snapshot(r.payload);
        effective = std::move(snap.history);
        snap_len = effective.size();
        rcp.watermark = snap.state.watermark;
        rcp.has_detector = snap.state.has_detector;
        rcp.detector = snap.state.detector;
        break;
      }
      case WalRecordType::kRecoveryBegin: {
        rcp.recoveries += 1;
        SanitizeResult s = sanitize(effective, snap_len);
        snap_len -= s.removed_below_snap;
        effective = std::move(s.history);
        break;
      }
      default:
        effective.push_back(HistRecord{r.type, r.t, r.payload});
        break;
    }
  }

  SanitizeResult fin = sanitize(effective, snap_len);
  rcp.has_interrupted = fin.had_open_grant;
  rcp.interrupted_prefix = std::move(fin.extracted);
  rcp.effective = std::move(fin.history);

  // Decode the sanitized history into resumable state. The open grant
  // (if any) is the last one and ends up with empty migs.
  const auto open_grant_for = [&rcp](int tenant) -> RecoveredGrant* {
    for (auto it = rcp.grants.rbegin(); it != rcp.grants.rend(); ++it) {
      if (it->grant.tenant == tenant && !it->finished && !it->requeued)
        return &*it;
    }
    return nullptr;
  };
  for (const HistRecord& h : rcp.effective) {
    switch (h.type) {
      case WalRecordType::kRunBegin:
        rcp.has_run = true;
        rcp.run = decode_run_begin(h.payload);
        break;
      case WalRecordType::kDetectDecision:
        rcp.has_decision = true;
        rcp.decision = decode_detect_decision(h.payload);
        break;
      case WalRecordType::kSchedRequest:
        rcp.requests.push_back(decode_sched_request(h.payload));
        break;
      case WalRecordType::kSchedGrant: {
        RecoveredGrant g;
        g.grant = decode_sched_grant(h.payload);
        rcp.grants.push_back(std::move(g));
        break;
      }
      case WalRecordType::kSchedFinish: {
        const SchedFinishRecord fin2 = decode_sched_finish(h.payload);
        RecoveredGrant* g = open_grant_for(fin2.tenant);
        if (g != nullptr) {
          g->finished = true;
          g->finish = fin2;
        }
        break;
      }
      case WalRecordType::kSchedRequeue: {
        const SchedRequeueRecord rq = decode_sched_requeue(h.payload);
        RecoveredGrant* g = open_grant_for(rq.tenant);
        if (g != nullptr) g->requeued = true;
        rcp.requeues.push_back(rq);
        break;
      }
      case WalRecordType::kSchedGiveUp: {
        const SchedGiveUpRecord gu = decode_sched_give_up(h.payload);
        RecoveredGrant* g = open_grant_for(gu.tenant);
        if (g != nullptr) g->requeued = true;
        rcp.give_ups.push_back(gu);
        break;
      }
      case WalRecordType::kRunEnd:
        rcp.run_complete = true;
        break;
      default:
        if (is_mig_record(h.type)) {
          MigRecord m = decode_mig(h.type, h.payload);
          m.event.t = h.t;
          RecoveredGrant* g = open_grant_for(m.tenant);
          if (g != nullptr) g->migs.push_back(std::move(m));
        }
        break;
    }
  }
  return rcp;
}

void reemit_events(const RecoveredControlPlane& rcp, obs::EventLog& elog) {
  for (const HistRecord& h : rcp.effective) {
    switch (h.type) {
      case WalRecordType::kDetectorOnset:
        obs::emit_detector_onset(elog,
                                 decode_detector_episode(h.payload).event);
        break;
      case WalRecordType::kDetectorClear:
        obs::emit_detector_clear(elog,
                                 decode_detector_episode(h.payload).event);
        break;
      case WalRecordType::kDetectDecision:
        emit_detect_decision(elog, decode_detect_decision(h.payload));
        break;
      case WalRecordType::kSchedRequest:
        emit_sched_request(elog, decode_sched_request(h.payload));
        break;
      case WalRecordType::kSchedFinish:
        emit_sched_finish(elog, decode_sched_finish(h.payload));
        break;
      case WalRecordType::kSchedRequeue:
        emit_sched_requeue(elog, decode_sched_requeue(h.payload));
        break;
      case WalRecordType::kSchedGiveUp:
        emit_sched_give_up(elog, decode_sched_give_up(h.payload));
        break;
      case WalRecordType::kMigReserve:
      case WalRecordType::kMigRelease:
      case WalRecordType::kMigCommit:
      case WalRecordType::kMigRollback:
      case WalRecordType::kMigReplan: {
        MigRecord m = decode_mig(h.type, h.payload);
        m.event.t = h.t;
        migrate::emit_migration_event(elog, m.event, m.downtime);
        break;
      }
      case WalRecordType::kMigChunk:  // never streamed: not worth decoding
      case WalRecordType::kRunBegin:
      case WalRecordType::kSchedGrant:
      case WalRecordType::kRunEnd:
      case WalRecordType::kSnapshot:
      case WalRecordType::kRecoveryBegin:
        break;
    }
  }
}

bool journal_prefix_consistent(const std::vector<MigRecord>& prefix,
                               const std::vector<fault::MigrationEvent>& redone,
                               std::string* why) {
  const auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  if (prefix.size() > redone.size()) {
    return fail("durable journal prefix (" + std::to_string(prefix.size()) +
                " events) is longer than the redone journal (" +
                std::to_string(redone.size()) + ")");
  }
  // The WAL holds the prefix in *emission* order; the redone report is
  // time-sorted (the executor stable-sorts its journal on finish). Sort
  // the prefix the same way, then require it to be an ordered
  // sub-multiset of the redone journal: every durable event must
  // reappear, field-for-field — a dropped one is a lost transition, and
  // a re-executed commit shows up as a count mismatch here or as a
  // double commit in the WAL audit.
  std::vector<MigRecord> sorted = prefix;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const MigRecord& a, const MigRecord& b) {
                     return a.event.t < b.event.t;
                   });
  std::size_t j = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const fault::MigrationEvent& a = sorted[i].event;
    bool found = false;
    for (; j < redone.size(); ++j) {
      const fault::MigrationEvent& b = redone[j];
      if (a.kind == b.kind && a.t == b.t && a.process == b.process &&
          a.site_from == b.site_from && a.site_to == b.site_to &&
          a.bytes == b.bytes) {
        found = true;
        ++j;
        break;
      }
    }
    if (!found) {
      std::ostringstream os;
      os << "redone journal lost durable event " << i << ": "
         << fault::to_string(a.kind) << " t=" << a.t << " p=" << a.process
         << " " << a.site_from << "->" << a.site_to;
      return fail(os.str());
    }
  }
  return true;
}

std::vector<std::string> check_recovery_invariants(
    const std::vector<WalRecord>& records) {
  std::vector<std::string> violations;
  const auto flag = [&violations](const std::string& msg) {
    violations.push_back(msg);
  };

  if (records.empty()) {
    flag("WAL is empty: no run_begin record");
    return violations;
  }
  if (records.front().type != WalRecordType::kRunBegin &&
      records.front().type != WalRecordType::kSnapshot) {
    flag(std::string("WAL starts with ") + to_string(records.front().type) +
         ", expected run_begin or snapshot");
  }

  RecoveredControlPlane rcp;
  try {
    rcp = replay_wal(records);
  } catch (const WalCorrupt& e) {
    flag(std::string("WAL does not replay: ") + e.what());
    return violations;
  }
  if (!rcp.has_run) flag("effective history has no run_begin record");

  // Attempts strictly increasing per tenant across the retry path.
  std::map<int, int> attempts_seen;
  const auto check_attempts = [&](int tenant, int attempts,
                                  const char* what) {
    int& prev = attempts_seen[tenant];
    if (attempts <= prev) {
      flag("tenant " + std::to_string(tenant) + ": " + what + " attempt " +
           std::to_string(attempts) + " does not exceed previous attempt " +
           std::to_string(prev) + " (a retry timer fired twice?)");
    }
    prev = attempts;
  };
  for (const HistRecord& h : rcp.effective) {
    if (h.type == WalRecordType::kSchedGrant) {
      const SchedGrantRecord g = decode_sched_grant(h.payload);
      check_attempts(g.tenant, g.attempts, "grant");
    } else if (h.type == WalRecordType::kSchedRequeue) {
      const SchedRequeueRecord r = decode_sched_requeue(h.payload);
      check_attempts(r.tenant, r.attempts, "requeue");
    } else if (h.type == WalRecordType::kSchedGiveUp) {
      // Give-up happens at the attempt that failed — same count as the
      // requeue path would have logged, not a new attempt.
      const SchedGiveUpRecord r = decode_sched_give_up(h.payload);
      if (r.attempts < attempts_seen[r.tenant]) {
        flag("tenant " + std::to_string(r.tenant) +
             ": give_up attempt count went backwards");
      }
      attempts_seen[r.tenant] = r.attempts;
    }
  }

  // Grants: one closing record each, at most one trailing open grant,
  // journal sanity per grant.
  std::map<int, int> grants_per_tenant;
  for (std::size_t i = 0; i < rcp.grants.size(); ++i) {
    const RecoveredGrant& g = rcp.grants[i];
    grants_per_tenant[g.grant.tenant] += 1;
    const bool open = !g.finished && !g.requeued;
    if (open && (i + 1 != rcp.grants.size() || !rcp.has_interrupted)) {
      flag("tenant " + std::to_string(g.grant.tenant) +
           ": grant never closed by a finish/requeue/give_up record");
    }
    std::map<ProcessId, int> commits;
    for (const MigRecord& m : g.migs) {
      if (m.tenant != g.grant.tenant) {
        flag("tenant " + std::to_string(g.grant.tenant) +
             ": journal record tagged for tenant " + std::to_string(m.tenant));
      }
      if (m.event.kind == fault::MigrationEventKind::kCommit &&
          m.event.process >= 0) {
        if (++commits[m.event.process] > 1) {
          flag("tenant " + std::to_string(g.grant.tenant) + ": process " +
               std::to_string(m.event.process) +
               " committed twice in one grant (double commit)");
        }
      }
    }
    if (g.finished && g.finish.granted_at != g.grant.granted_at) {
      flag("tenant " + std::to_string(g.grant.tenant) +
           ": finish record grant time " +
           std::to_string(g.finish.granted_at) +
           " does not match the grant record's " +
           std::to_string(g.grant.granted_at));
    }
  }
  for (const auto& [tenant, n] : grants_per_tenant) {
    (void)n;  // requeued grants legitimately re-enter the queue
    int completed = 0;
    for (const RecoveredGrant& g : rcp.grants) {
      if (g.grant.tenant == tenant && g.finished) completed += 1;
    }
    if (completed > 1) {
      flag("tenant " + std::to_string(tenant) + " finished " +
           std::to_string(completed) + " grants (lost-grant bookkeeping)");
    }
  }

  // Journal records are only legal inside an open grant of their tenant.
  {
    std::set<int> open_tenants;
    for (const HistRecord& h : rcp.effective) {
      if (h.type == WalRecordType::kSchedGrant) {
        open_tenants.insert(decode_sched_grant(h.payload).tenant);
      } else if (h.type == WalRecordType::kSchedFinish ||
                 h.type == WalRecordType::kSchedRequeue ||
                 h.type == WalRecordType::kSchedGiveUp) {
        open_tenants.erase(record_tenant(h));
      } else if (is_mig_record(h.type)) {
        const MigRecord m2 = decode_mig(h.type, h.payload);
        if (open_tenants.count(m2.tenant) == 0) {
          flag(std::string("journal record ") + to_string(h.type) +
               " for tenant " + std::to_string(m2.tenant) +
               " outside any open grant");
        }
      }
    }
  }

  // The interrupted grant's durable prefix obeys the same per-grant rules
  // (it is exactly the journal the redo must extend).
  if (rcp.has_interrupted && !rcp.grants.empty()) {
    const RecoveredGrant& og = rcp.grants.back();
    std::map<ProcessId, int> commits;
    for (const MigRecord& m2 : rcp.interrupted_prefix) {
      if (m2.tenant != og.grant.tenant) {
        flag("tenant " + std::to_string(og.grant.tenant) +
             ": durable journal prefix tagged for tenant " +
             std::to_string(m2.tenant));
      }
      if (m2.event.kind == fault::MigrationEventKind::kCommit &&
          m2.event.process >= 0 && ++commits[m2.event.process] > 1) {
        flag("tenant " + std::to_string(og.grant.tenant) + ": process " +
             std::to_string(m2.event.process) +
             " committed twice in the durable prefix (double commit)");
      }
    }
  }

  if (rcp.has_interrupted && rcp.run_complete) {
    flag("run_end present but the last grant is still open");
  }

  // A complete run resolves every request: granted to completion or
  // given up — a request that vanished is a lost grant.
  if (rcp.run_complete) {
    for (const SchedRequestRecord& r : rcp.requests) {
      bool resolved = false;
      for (const RecoveredGrant& g : rcp.grants) {
        if (g.grant.tenant == r.tenant && g.finished) resolved = true;
      }
      for (const SchedGiveUpRecord& g : rcp.give_ups) {
        if (g.tenant == r.tenant) resolved = true;
      }
      if (!resolved) {
        flag("tenant " + std::to_string(r.tenant) +
             " requested a remap but the completed run never granted or "
             "gave it up (lost grant)");
      }
    }
    // A restart on an already-sealed WAL legitimately appends a trailing
    // recovery_begin marker; the last *state-bearing* record must still
    // be the run_end.
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
      if (it->type == WalRecordType::kRecoveryBegin) continue;
      if (it->type != WalRecordType::kRunEnd) {
        flag(std::string("run is complete but the WAL ends with ") +
             to_string(it->type) + ", expected run_end");
      }
      break;
    }
  }

  // Every grant must trace back to a durable request.
  for (const RecoveredGrant& g : rcp.grants) {
    bool requested = false;
    for (const SchedRequestRecord& r : rcp.requests) {
      if (r.tenant == g.grant.tenant) requested = true;
    }
    if (!requested) {
      flag("tenant " + std::to_string(g.grant.tenant) +
           " was granted without a durable sched_request record");
    }
  }

  return violations;
}

}  // namespace geomap::recover

#include "recover/records.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>

#include "common/error.h"
#include "common/json_reader.h"
#include "common/json_writer.h"
#include "migrate/soak.h"

namespace geomap::recover {

namespace {

constexpr Seconds kInf = std::numeric_limits<double>::infinity();

/// Parse a payload that already passed its line CRC — failure here is
/// corruption, never a torn tail.
JsonValue parse_payload(const std::string& payload, const char* what) {
  try {
    return parse_json(payload);
  } catch (const InvalidArgument& e) {
    throw WalCorrupt(std::string(what) + " payload does not parse: " +
                     e.what());
  }
}

double num(const JsonValue& v, const char* key, const char* what) {
  const JsonValue* m = v.find(key);
  if (m == nullptr || !m->is_number()) {
    throw WalCorrupt(std::string(what) + " payload missing number \"" + key +
                     "\"");
  }
  return m->as_number();
}

/// `x` as an integer of type T. Only an integral value inside T's range
/// converts; anything else (1e30, 0.5, -1 for an unsigned field) is
/// corruption — casting it would be undefined behaviour.
template <typename T>
T to_int(double x, const char* key, const char* what) {
  // [lo, hi) with both bounds powers of two (or zero), exact as doubles.
  constexpr double lo = static_cast<double>(std::numeric_limits<T>::min());
  constexpr double hi =
      2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
  if (!(x >= lo && x < hi) || x != std::trunc(x)) {
    std::ostringstream os;
    os << what << " payload field \"" << key << "\" is not an integer in "
       << "range: " << x;
    throw WalCorrupt(os.str());
  }
  return static_cast<T>(x);
}

template <typename T = int>
T num_int(const JsonValue& v, const char* key, const char* what) {
  return to_int<T>(num(v, key, what), key, what);
}

bool flag(const JsonValue& v, const char* key, const char* what) {
  const JsonValue* m = v.find(key);
  if (m == nullptr || !m->is_bool()) {
    throw WalCorrupt(std::string(what) + " payload missing bool \"" + key +
                     "\"");
  }
  return m->as_bool();
}

std::string str(const JsonValue& v, const char* key, const char* what) {
  const JsonValue* m = v.find(key);
  if (m == nullptr || !m->is_string()) {
    throw WalCorrupt(std::string(what) + " payload missing string \"" + key +
                     "\"");
  }
  return m->as_string();
}

const std::vector<JsonValue>& arr(const JsonValue& v, const char* key,
                                  const char* what) {
  const JsonValue* m = v.find(key);
  if (m == nullptr || !m->is_array()) {
    throw WalCorrupt(std::string(what) + " payload missing array \"" + key +
                     "\"");
  }
  return m->items();
}

Mapping int_array(const JsonValue& v, const char* key, const char* what) {
  Mapping out;
  for (const JsonValue& item : arr(v, key, what)) {
    if (!item.is_number()) {
      throw WalCorrupt(std::string(what) + " array \"" + key +
                       "\" holds a non-number");
    }
    out.push_back(to_int<SiteId>(item.as_number(), key, what));
  }
  return out;
}

void write_mapping(JsonWriter& w, const char* key, const Mapping& m) {
  w.key(key).begin_array();
  for (SiteId s : m) w.value(s);
  w.end_array();
}

obs::DegradationKind parse_kind(const std::string& name, const char* what) {
  if (name == "latency") return obs::DegradationKind::kLatency;
  if (name == "down") return obs::DegradationKind::kDown;
  throw WalCorrupt(std::string(what) + " payload has unknown kind \"" + name +
                   "\"");
}

obs::DegradationEvent read_episode(const JsonValue& v, const char* what) {
  obs::DegradationEvent e;
  e.src = num_int(v, "src", what);
  e.dst = num_int(v, "dst", what);
  e.kind = parse_kind(str(v, "kind", what), what);
  e.onset_vtime = num(v, "onset", what);
  e.detect_vtime = num(v, "detect", what);
  const JsonValue* end = v.find("end");
  e.end_vtime = (end != nullptr && end->is_number()) ? end->as_number() : kInf;
  e.severity = num(v, "severity", what);
  e.confidence = num(v, "confidence", what);
  return e;
}

void write_checkpoint(JsonWriter& w, const obs::DetectorCheckpoint& ckpt) {
  w.begin_object();
  w.key("events").begin_array();
  for (const obs::DegradationEvent& e : ckpt.events) {
    obs::write_episode(w, e, e.end_vtime);
  }
  w.end_array();
  w.key("links").begin_array();
  for (const obs::DetectorLinkState& ls : ckpt.links) {
    w.begin_object();
    w.field("src", ls.src);
    w.field("dst", ls.dst);
    w.field("cusum", ls.cusum);
    w.field("ewma", ls.ewma);
    w.field("ewma_primed", ls.ewma_primed);
    w.field("excursion_start", ls.excursion_start);
    w.field("open_latency", static_cast<std::int64_t>(ls.open_latency));
    w.key("recent_retries").begin_array();
    for (const auto& [t, count] : ls.recent_retries) {
      w.begin_array();
      w.value(t);
      w.value(count);
      w.end_array();
    }
    w.end_array();
    w.field("open_down", static_cast<std::int64_t>(ls.open_down));
    w.field("last_down_signal", ls.last_down_signal);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

obs::DetectorCheckpoint read_checkpoint(const JsonValue& v) {
  const char* what = "detector checkpoint";
  obs::DetectorCheckpoint ckpt;
  for (const JsonValue& item : arr(v, "events", what)) {
    ckpt.events.push_back(read_episode(item, what));
  }
  for (const JsonValue& item : arr(v, "links", what)) {
    obs::DetectorLinkState ls;
    ls.src = num_int(item, "src", what);
    ls.dst = num_int(item, "dst", what);
    ls.cusum = num(item, "cusum", what);
    ls.ewma = num(item, "ewma", what);
    ls.ewma_primed = flag(item, "ewma_primed", what);
    ls.excursion_start = num(item, "excursion_start", what);
    ls.open_latency = num_int<std::ptrdiff_t>(item, "open_latency", what);
    for (const JsonValue& pair : arr(item, "recent_retries", what)) {
      if (!pair.is_array() || pair.items().size() != 2 ||
          !pair.items()[0].is_number() || !pair.items()[1].is_number()) {
        throw WalCorrupt("detector checkpoint recent_retries entry is not a "
                         "[t, count] pair");
      }
      ls.recent_retries.emplace_back(pair.items()[0].as_number(),
                                     pair.items()[1].as_number());
    }
    ls.open_down = num_int<std::ptrdiff_t>(item, "open_down", what);
    ls.last_down_signal = num(item, "last_down_signal", what);
    ckpt.links.push_back(std::move(ls));
  }
  return ckpt;
}

}  // namespace

std::string encode_run_begin(const RunBeginRecord& r) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.field("seed", static_cast<std::uint64_t>(r.seed));
  w.field("tenants", r.tenants);
  w.field("sites", r.sites);
  w.field("policy", r.policy);
  w.end_object();
  return os.str();
}

RunBeginRecord decode_run_begin(const std::string& payload) {
  const char* what = "run_begin";
  const JsonValue v = parse_payload(payload, what);
  RunBeginRecord r;
  r.seed = num_int<std::uint64_t>(v, "seed", what);
  r.tenants = num_int(v, "tenants", what);
  r.sites = num_int(v, "sites", what);
  r.policy = str(v, "policy", what);
  return r;
}

std::string encode_detector_episode(const obs::DegradationEvent& e,
                                    Seconds end) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  obs::write_episode(w, e, end);
  return os.str();
}

DetectorEpisodeRecord decode_detector_episode(const std::string& payload) {
  const char* what = "detector episode";
  const JsonValue v = parse_payload(payload, what);
  DetectorEpisodeRecord r;
  r.event = read_episode(v, what);
  return r;
}

std::string encode_detect_decision(const DetectDecisionRecord& r) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.field("detected", r.detected);
  w.field("suspected_correct", r.suspected_correct);
  w.field("suspect", r.suspect);
  w.field("failed_site", r.failed_site);
  w.field("outage_time", r.outage_time);
  w.field("detect_time", r.detect_time);
  w.end_object();
  return os.str();
}

DetectDecisionRecord decode_detect_decision(const std::string& payload) {
  const char* what = "detect_decision";
  const JsonValue v = parse_payload(payload, what);
  DetectDecisionRecord r;
  r.detected = flag(v, "detected", what);
  r.suspected_correct = flag(v, "suspected_correct", what);
  r.suspect = num_int(v, "suspect", what);
  r.failed_site = num_int(v, "failed_site", what);
  r.outage_time = num(v, "outage_time", what);
  r.detect_time = num(v, "detect_time", what);
  return r;
}

void emit_detect_decision(obs::EventLog& log, const DetectDecisionRecord& r) {
  migrate::emit_detect_decision(log, r.detect_time, r.detected,
                                r.suspected_correct, r.suspect,
                                r.failed_site, r.outage_time);
}

std::string encode_sched_request(const SchedRequestRecord& r) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.field("tenant", r.tenant);
  w.field("request_time", r.request_time);
  w.field("severity", r.severity);
  w.end_object();
  return os.str();
}

SchedRequestRecord decode_sched_request(const std::string& payload) {
  const char* what = "sched_request";
  const JsonValue v = parse_payload(payload, what);
  SchedRequestRecord r;
  r.tenant = num_int(v, "tenant", what);
  r.request_time = num(v, "request_time", what);
  r.severity = num(v, "severity", what);
  return r;
}

void emit_sched_request(obs::EventLog& log, const SchedRequestRecord& r) {
  log.emit(r.request_time, obs::EventSeverity::kInfo, "scheduler", "queue",
           {obs::field("tenant", r.tenant),
            obs::field("severity", r.severity)});
}

std::string encode_sched_grant(const SchedGrantRecord& r) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.field("tenant", r.tenant);
  w.field("granted_at", r.granted_at);
  w.field("attempts", r.attempts);
  write_mapping(w, "current", r.current);
  write_mapping(w, "target", r.target);
  w.key("view_capacities").begin_array();
  for (double c : r.view_capacities) w.value(c);
  w.end_array();
  w.end_object();
  return os.str();
}

SchedGrantRecord decode_sched_grant(const std::string& payload) {
  const char* what = "sched_grant";
  const JsonValue v = parse_payload(payload, what);
  SchedGrantRecord r;
  r.tenant = num_int(v, "tenant", what);
  r.granted_at = num(v, "granted_at", what);
  r.attempts = num_int(v, "attempts", what);
  r.current = int_array(v, "current", what);
  r.target = int_array(v, "target", what);
  // Integral capacities: a resumed grant narrows them back to int.
  const std::vector<SiteId> caps = int_array(v, "view_capacities", what);
  r.view_capacities.assign(caps.begin(), caps.end());
  return r;
}

std::string encode_sched_requeue(const SchedRequeueRecord& r) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.field("tenant", r.tenant);
  w.field("t", r.t);
  w.field("attempts", r.attempts);
  w.field("next_eligible", r.next_eligible);
  w.end_object();
  return os.str();
}

SchedRequeueRecord decode_sched_requeue(const std::string& payload) {
  const char* what = "sched_requeue";
  const JsonValue v = parse_payload(payload, what);
  SchedRequeueRecord r;
  r.tenant = num_int(v, "tenant", what);
  r.t = num(v, "t", what);
  r.attempts = num_int(v, "attempts", what);
  r.next_eligible = num(v, "next_eligible", what);
  return r;
}

void emit_sched_requeue(obs::EventLog& log, const SchedRequeueRecord& r) {
  log.emit(r.t, obs::EventSeverity::kWarn, "scheduler", "requeue",
           {obs::field("tenant", r.tenant), obs::field("attempts", r.attempts),
            obs::field("next_eligible", r.next_eligible)});
}

std::string encode_sched_give_up(const SchedGiveUpRecord& r) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.field("tenant", r.tenant);
  w.field("t", r.t);
  w.field("attempts", r.attempts);
  w.end_object();
  return os.str();
}

SchedGiveUpRecord decode_sched_give_up(const std::string& payload) {
  const char* what = "sched_give_up";
  const JsonValue v = parse_payload(payload, what);
  SchedGiveUpRecord r;
  r.tenant = num_int(v, "tenant", what);
  r.t = num(v, "t", what);
  r.attempts = num_int(v, "attempts", what);
  return r;
}

void emit_sched_give_up(obs::EventLog& log, const SchedGiveUpRecord& r) {
  log.emit(r.t, obs::EventSeverity::kError, "scheduler", "give_up",
           {obs::field("tenant", r.tenant),
            obs::field("attempts", r.attempts)});
}

std::string encode_sched_finish(const SchedFinishRecord& r) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.field("tenant", r.tenant);
  w.field("granted_at", r.granted_at);
  w.field("finish_time", r.finish_time);
  w.field("migration_seconds", r.migration_seconds);
  w.field("queue_wait", r.queue_wait);
  w.field("attempts", r.attempts);
  write_mapping(w, "final_mapping", r.final_mapping);
  w.end_object();
  return os.str();
}

SchedFinishRecord decode_sched_finish(const std::string& payload) {
  const char* what = "sched_finish";
  const JsonValue v = parse_payload(payload, what);
  SchedFinishRecord r;
  r.tenant = num_int(v, "tenant", what);
  r.granted_at = num(v, "granted_at", what);
  r.finish_time = num(v, "finish_time", what);
  r.migration_seconds = num(v, "migration_seconds", what);
  r.queue_wait = num(v, "queue_wait", what);
  r.attempts = num_int(v, "attempts", what);
  r.final_mapping = int_array(v, "final_mapping", what);
  return r;
}

void emit_sched_finish(obs::EventLog& log, const SchedFinishRecord& r) {
  log.emit(r.granted_at, obs::EventSeverity::kInfo, "scheduler", "grant",
           {obs::field("tenant", r.tenant),
            obs::field("queue_wait", r.queue_wait),
            obs::field("attempts", r.attempts),
            obs::field("migration_seconds", r.migration_seconds)});
}

std::string encode_mig(const MigRecord& r) {
  std::optional<Seconds> downtime;
  if (r.event.kind == fault::MigrationEventKind::kCommit) downtime = r.downtime;
  return encode_mig_payload(r.tenant, r.event.process, r.event.site_from,
                            r.event.site_to, r.event.bytes, downtime);
}

MigRecord decode_mig(WalRecordType type, const std::string& payload) {
  const char* what = to_string(type);
  const JsonValue v = parse_payload(payload, what);
  MigRecord r;
  switch (type) {
    case WalRecordType::kMigReserve:
      r.event.kind = fault::MigrationEventKind::kReserve;
      break;
    case WalRecordType::kMigRelease:
      r.event.kind = fault::MigrationEventKind::kRelease;
      break;
    case WalRecordType::kMigChunk:
      r.event.kind = fault::MigrationEventKind::kChunk;
      break;
    case WalRecordType::kMigCommit:
      r.event.kind = fault::MigrationEventKind::kCommit;
      break;
    case WalRecordType::kMigRollback:
      r.event.kind = fault::MigrationEventKind::kRollback;
      break;
    case WalRecordType::kMigReplan:
      r.event.kind = fault::MigrationEventKind::kReplan;
      break;
    default:
      throw WalCorrupt(std::string("record type ") + what +
                       " is not a migration record");
  }
  r.tenant = num_int(v, "tenant", what);
  r.event.process = num_int<ProcessId>(v, "process", what);
  r.event.site_from = num_int(v, "from", what);
  r.event.site_to = num_int(v, "to", what);
  r.event.bytes = num(v, "bytes", what);
  if (r.event.kind == fault::MigrationEventKind::kCommit) {
    r.downtime = num(v, "downtime", what);
  }
  return r;
}

std::string encode_snapshot_state(const SnapshotStateRecord& r) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.field("watermark", static_cast<std::uint64_t>(r.watermark));
  if (r.has_detector) {
    w.key("detector");
    write_checkpoint(w, r.detector);
  }
  w.end_object();
  return os.str();
}

SnapshotStateRecord decode_snapshot_state(const std::string& payload) {
  const char* what = "snapshot state";
  const JsonValue v = parse_payload(payload, what);
  SnapshotStateRecord r;
  r.watermark = num_int<std::size_t>(v, "watermark", what);
  const JsonValue* det = v.find("detector");
  if (det != nullptr) {
    r.has_detector = true;
    r.detector = read_checkpoint(*det);
  }
  return r;
}

SnapshotRecord decode_snapshot(const std::string& payload) {
  const char* what = "snapshot";
  const JsonValue v = parse_payload(payload, what);
  const JsonValue* state = v.find("state");
  if (state == nullptr) throw WalCorrupt("snapshot payload missing \"state\"");
  SnapshotRecord r;
  {
    // Re-serialize the state subtree through its own decoder so both
    // halves share one strict schema.
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/false);
    w.begin_object();
    w.field("watermark", num(*state, "watermark", what));
    const JsonValue* det = state->find("detector");
    if (det != nullptr) {
      w.key("detector");
      write_checkpoint(w, read_checkpoint(*det));
    }
    w.end_object();
    r.state = decode_snapshot_state(os.str());
  }
  for (const JsonValue& item : arr(v, "history", what)) {
    HistRecord h;
    WalRecordType type;
    if (!parse_record_type(str(item, "type", what), &type)) {
      throw WalCorrupt("snapshot history entry has unknown record type");
    }
    h.type = type;
    h.t = num(item, "t", what);
    const JsonValue* p = item.find("payload");
    if (p == nullptr || !p->is_string()) {
      throw WalCorrupt("snapshot history entry missing payload string");
    }
    h.payload = p->as_string();
    r.history.push_back(std::move(h));
  }
  return r;
}

migrate::MigrationReport rebuild_migration_report(
    const std::vector<MigRecord>& records, const Mapping& at_grant,
    const Mapping& target, Seconds granted_at, Seconds finish_time) {
  migrate::MigrationReport rep;
  rep.final_mapping = at_grant;
  rep.start_time = granted_at;
  rep.finish_time = finish_time;
  for (std::size_t p = 0; p < at_grant.size() && p < target.size(); ++p) {
    if (target[p] != at_grant[p]) rep.processes_planned += 1;
  }
  // WAL order is emission order; the executor's journal is time-sorted
  // (stable). Rebuild in the same order so the recovered report feeds
  // the invariant checkers exactly like a live one.
  std::vector<MigRecord> sorted = records;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const MigRecord& a, const MigRecord& b) {
                     return a.event.t < b.event.t;
                   });
  Seconds last_activity = granted_at;
  for (const MigRecord& r : sorted) {
    const fault::MigrationEvent& e = r.event;
    rep.events.push_back(e);
    last_activity = std::max(last_activity, e.t);
    switch (e.kind) {
      case fault::MigrationEventKind::kCommit:
        if (e.process >= 0 &&
            e.process < static_cast<ProcessId>(rep.final_mapping.size())) {
          rep.final_mapping[static_cast<std::size_t>(e.process)] = e.site_to;
        }
        if (e.site_from != e.site_to) rep.processes_committed += 1;
        rep.max_downtime = std::max(rep.max_downtime, r.downtime);
        rep.total_downtime += r.downtime;
        break;
      case fault::MigrationEventKind::kRollback:
        rep.rollbacks += 1;
        break;
      case fault::MigrationEventKind::kReplan:
        rep.replans += 1;
        break;
      case fault::MigrationEventKind::kChunk:
        rep.bytes_sent += e.bytes;
        break;
      case fault::MigrationEventKind::kReserve:
      case fault::MigrationEventKind::kRelease:
        break;
    }
  }
  rep.migration_seconds = std::max(0.0, last_activity - granted_at);
  return rep;
}

}  // namespace geomap::recover

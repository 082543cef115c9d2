// Corpus-driven robustness tests for the WAL record codecs
// (recover/records.cpp). A record that passed its line CRC can still
// hold anything, so every mutation of a real payload — truncation,
// random byte edits, a numeric field replaced by an out-of-range or
// fractional value — must either decode or throw a typed geomap::Error.
// A decode that silently changes a value (an integer field read from
// 1e30 or 0.5) fails too: the decoded record must encode back to the
// numbers it was read from.

#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/json_reader.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "obs/collector.h"
#include "recover/driver.h"
#include "recover/records.h"
#include "recover/wal.h"

namespace geomap::recover {
namespace {

struct Payload {
  WalRecordType type;
  std::string text;
};

/// Every payload of a fresh seed-17 WAL (8 tenants x 4 sites), the
/// snapshot's embedded history included, plus one encoder output per
/// record type (the WAL never writes requeues, give-ups, releases,
/// rollbacks or replans on this seed).
std::vector<Payload> corpus() {
  std::vector<Payload> out;
  // One directory per test: ctest runs the tests as parallel processes.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      (std::string("geomap-wal-codec-") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  std::filesystem::remove_all(dir);
  {
    obs::Collector collector;
    RecoverableSoakOptions o;
    o.soak.substrate.num_sites = 4;
    o.soak.substrate.num_tenants = 8;
    o.soak.collector = &collector;
    o.wal_dir = dir.string();
    o.wal.fsync = false;
    run_recoverable_case(17, o);
  }
  for (const WalRecord& r : read_wal(dir.string()).records) {
    out.push_back({r.type, r.payload});
    if (r.type != WalRecordType::kSnapshot) continue;
    for (const HistRecord& h : decode_snapshot(r.payload).history) {
      out.push_back({h.type, h.payload});
    }
  }
  std::filesystem::remove_all(dir);

  RunBeginRecord rb;
  rb.seed = 17;
  rb.tenants = 8;
  rb.sites = 4;
  rb.policy = "fifo";
  out.push_back({WalRecordType::kRunBegin, encode_run_begin(rb)});
  obs::DegradationEvent e;
  e.src = 0;
  e.dst = 2;
  e.kind = obs::DegradationKind::kDown;
  e.onset_vtime = 1.25;
  e.detect_vtime = 1.5;
  e.severity = 4.0;
  e.confidence = 0.75;
  out.push_back({WalRecordType::kDetectorOnset,
                 encode_detector_episode(
                     e, std::numeric_limits<double>::infinity())});
  out.push_back(
      {WalRecordType::kDetectorClear, encode_detector_episode(e, 3.5)});
  DetectDecisionRecord dd;
  dd.detected = true;
  dd.suspected_correct = true;
  dd.suspect = 2;
  dd.failed_site = 2;
  dd.outage_time = 1.0;
  dd.detect_time = 1.5;
  out.push_back({WalRecordType::kDetectDecision, encode_detect_decision(dd)});
  SchedRequestRecord rq;
  rq.tenant = 3;
  rq.request_time = 1.5;
  rq.severity = 0.25;
  out.push_back({WalRecordType::kSchedRequest, encode_sched_request(rq)});
  SchedGrantRecord g;
  g.tenant = 3;
  g.granted_at = 2.0;
  g.attempts = 2;
  g.current = {0, 2, 2};
  g.target = {0, 1, 3};
  g.view_capacities = {4, 2, 0, 5};
  out.push_back({WalRecordType::kSchedGrant, encode_sched_grant(g)});
  SchedRequeueRecord rr;
  rr.tenant = 3;
  rr.t = 2.0;
  rr.attempts = 1;
  rr.next_eligible = 2.5;
  out.push_back({WalRecordType::kSchedRequeue, encode_sched_requeue(rr)});
  SchedGiveUpRecord gu;
  gu.tenant = 3;
  gu.t = 4.0;
  gu.attempts = 3;
  out.push_back({WalRecordType::kSchedGiveUp, encode_sched_give_up(gu)});
  SchedFinishRecord fin;
  fin.tenant = 3;
  fin.granted_at = 2.0;
  fin.finish_time = 3.75;
  fin.migration_seconds = 1.75;
  fin.queue_wait = 0.5;
  fin.attempts = 2;
  fin.final_mapping = {0, 1, 3};
  out.push_back({WalRecordType::kSchedFinish, encode_sched_finish(fin)});
  const std::pair<WalRecordType, fault::MigrationEventKind> migs[] = {
      {WalRecordType::kMigReserve, fault::MigrationEventKind::kReserve},
      {WalRecordType::kMigRelease, fault::MigrationEventKind::kRelease},
      {WalRecordType::kMigChunk, fault::MigrationEventKind::kChunk},
      {WalRecordType::kMigCommit, fault::MigrationEventKind::kCommit},
      {WalRecordType::kMigRollback, fault::MigrationEventKind::kRollback},
      {WalRecordType::kMigReplan, fault::MigrationEventKind::kReplan},
  };
  for (const auto& [type, kind] : migs) {
    MigRecord m;
    m.tenant = 3;
    m.event.kind = kind;
    m.event.process = 1;
    m.event.site_from = 2;
    m.event.site_to = 1;
    m.event.bytes = 524288.0;
    m.downtime = 0.125;
    out.push_back({type, encode_mig(m)});
  }
  SnapshotStateRecord state;
  state.watermark = 48;
  state.has_detector = true;
  e.end_vtime = 3.5;
  state.detector.events = {e};
  obs::DetectorLinkState link;
  link.src = 0;
  link.dst = 2;
  link.cusum = 1.5;
  link.ewma = 2.25;
  link.ewma_primed = true;
  link.excursion_start = 1.0;
  link.open_latency = 0;
  link.recent_retries = {{1.25, 2.0}, {1.5, 1.0}};
  link.open_down = -1;
  link.last_down_signal = 1.5;
  state.detector.links = {link};
  out.push_back({WalRecordType::kSnapshot,
                 R"({"state":)" + encode_snapshot_state(state) +
                     R"(,"history":[{"type":"sched_request","t":1.5,)"
                     R"("payload":"{\"tenant\":3}"}]})"});
  return out;
}

/// Decode `text` as a `type` record and encode the result again (a
/// snapshot's history entries as the WAL writes them). Record types
/// without a payload codec come back unchanged.
std::string decode_and_encode(WalRecordType type, const std::string& text) {
  switch (type) {
    case WalRecordType::kRunBegin:
      return encode_run_begin(decode_run_begin(text));
    case WalRecordType::kDetectorOnset:
    case WalRecordType::kDetectorClear: {
      const obs::DegradationEvent e = decode_detector_episode(text).event;
      return encode_detector_episode(e, e.end_vtime);
    }
    case WalRecordType::kDetectDecision:
      return encode_detect_decision(decode_detect_decision(text));
    case WalRecordType::kSchedRequest:
      return encode_sched_request(decode_sched_request(text));
    case WalRecordType::kSchedGrant:
      return encode_sched_grant(decode_sched_grant(text));
    case WalRecordType::kSchedRequeue:
      return encode_sched_requeue(decode_sched_requeue(text));
    case WalRecordType::kSchedGiveUp:
      return encode_sched_give_up(decode_sched_give_up(text));
    case WalRecordType::kSchedFinish:
      return encode_sched_finish(decode_sched_finish(text));
    case WalRecordType::kMigReserve:
    case WalRecordType::kMigRelease:
    case WalRecordType::kMigChunk:
    case WalRecordType::kMigCommit:
    case WalRecordType::kMigRollback:
    case WalRecordType::kMigReplan:
      return encode_mig(decode_mig(type, text));
    case WalRecordType::kSnapshot: {
      const SnapshotRecord snap = decode_snapshot(text);
      std::ostringstream os;
      JsonWriter w(os, /*pretty=*/false);
      w.begin_object();
      w.key("state").raw(encode_snapshot_state(snap.state));
      w.key("history").begin_array();
      for (const HistRecord& h : snap.history) {
        w.begin_object();
        w.field("type", to_string(h.type));
        w.field("t", h.t);
        w.field("payload", h.payload);
        w.end_object();
      }
      w.end_array();
      w.end_object();
      return os.str();
    }
    case WalRecordType::kRecoveryBegin:
    case WalRecordType::kRunEnd:
      break;
  }
  return text;
}

/// The contract under test: decode or throw geomap::Error — never any
/// other exception, never a crash. Returns whether it decoded.
bool decodes_or_throws(const Payload& p, std::string* encoded = nullptr) {
  try {
    const std::string out = decode_and_encode(p.type, p.text);
    if (encoded != nullptr) *encoded = out;
    return true;
  } catch (const Error&) {
    return false;
  }
  // Any other exception type escapes and fails the test.
}

/// Same shape, same numbers, strings and flags.
bool same_json(const JsonValue& a, const JsonValue& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case JsonValue::Kind::kNull:
      return true;
    case JsonValue::Kind::kBool:
      return a.as_bool() == b.as_bool();
    case JsonValue::Kind::kNumber:
      return a.as_number() == b.as_number();
    case JsonValue::Kind::kString:
      return a.as_string() == b.as_string();
    case JsonValue::Kind::kArray:
      if (a.items().size() != b.items().size()) return false;
      for (std::size_t i = 0; i < a.items().size(); ++i) {
        if (!same_json(a.items()[i], b.items()[i])) return false;
      }
      return true;
    case JsonValue::Kind::kObject:
      if (a.members().size() != b.members().size()) return false;
      for (const auto& [key, value] : a.members()) {
        const JsonValue* other = b.find(key);
        if (other == nullptr || !same_json(value, *other)) return false;
      }
      return true;
  }
  return false;
}

void write_json(JsonWriter& w, const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      w.null();
      break;
    case JsonValue::Kind::kBool:
      w.value(v.as_bool());
      break;
    case JsonValue::Kind::kNumber:
      w.value(v.as_number());
      break;
    case JsonValue::Kind::kString:
      w.value(v.as_string());
      break;
    case JsonValue::Kind::kArray:
      w.begin_array();
      for (const JsonValue& item : v.items()) write_json(w, item);
      w.end_array();
      break;
    case JsonValue::Kind::kObject:
      w.begin_object();
      for (const auto& [key, value] : v.members()) {
        w.key(key);
        write_json(w, value);
      }
      w.end_object();
      break;
  }
}

/// `v` with its `index`-th number (document order) replaced by `x`;
/// `seen` counts the numbers visited so far.
JsonValue replace_number(const JsonValue& v, int index, double x, int& seen) {
  switch (v.kind()) {
    case JsonValue::Kind::kNumber:
      return JsonValue::make_number(seen++ == index ? x : v.as_number());
    case JsonValue::Kind::kArray: {
      std::vector<JsonValue> items;
      for (const JsonValue& item : v.items())
        items.push_back(replace_number(item, index, x, seen));
      return JsonValue::make_array(std::move(items));
    }
    case JsonValue::Kind::kObject: {
      std::vector<std::pair<std::string, JsonValue>> members;
      for (const auto& [key, value] : v.members())
        members.emplace_back(key, replace_number(value, index, x, seen));
      return JsonValue::make_object(std::move(members));
    }
    default:
      return v;
  }
}

TEST(WalCodecFuzzTest, CorpusRoundTrips) {
  const std::vector<Payload> payloads = corpus();
  ASSERT_GE(payloads.size(), 100u);
  for (const Payload& p : payloads) {
    std::string encoded;
    ASSERT_TRUE(decodes_or_throws(p, &encoded)) << to_string(p.type) << ": "
                                                << p.text;
    EXPECT_TRUE(same_json(parse_json(encoded), parse_json(p.text)))
        << to_string(p.type) << ": " << p.text << " came back as "
        << encoded;
  }
}

TEST(WalCodecFuzzTest, EveryPrefixTruncationIsHandled) {
  for (const Payload& p : corpus()) {
    for (std::size_t len = 0; len < p.text.size(); ++len) {
      decodes_or_throws({p.type, p.text.substr(0, len)});
    }
  }
}

TEST(WalCodecFuzzTest, SeededByteMutationsAreHandled) {
  Rng rng(20261019);
  for (const Payload& p : corpus()) {
    for (int round = 0; round < 60; ++round) {
      std::string mutated = p.text;
      const int edits = 1 + static_cast<int>(rng.uniform_index(3));
      for (int e = 0; e < edits && !mutated.empty(); ++e) {
        const std::size_t at = rng.uniform_index(mutated.size());
        switch (rng.uniform_index(3)) {
          case 0:  // flip to an arbitrary byte (including NUL / high bit)
            mutated[at] = static_cast<char>(rng.uniform_index(256));
            break;
          case 1:  // delete
            mutated.erase(at, 1);
            break;
          default:  // insert a digit, sign, exponent or structural byte
            mutated.insert(at, 1, "0123456789-.e{}[],:\""[rng.uniform_index(20)]);
            break;
        }
      }
      decodes_or_throws({p.type, mutated});
    }
  }
}

TEST(WalCodecFuzzTest, OutOfRangeAndFractionalNumbersNeverDecodeSilently) {
  const double replacements[] = {1e30, -1e30, 0.5, -1.0};
  int rejected = 0;
  for (const Payload& p : corpus()) {
    const JsonValue doc = parse_json(p.text);
    int numbers = 0;
    replace_number(doc, -1, 0.0, numbers);
    for (int index = 0; index < numbers; ++index) {
      for (const double x : replacements) {
        int seen = 0;
        std::ostringstream os;
        {
          JsonWriter w(os, /*pretty=*/false);
          write_json(w, replace_number(doc, index, x, seen));
        }
        const Payload mutated{p.type, os.str()};
        std::string encoded;
        if (!decodes_or_throws(mutated, &encoded)) {
          rejected += 1;
          continue;
        }
        // Decoded: every number must have survived exactly.
        EXPECT_TRUE(same_json(parse_json(encoded), parse_json(mutated.text)))
            << to_string(p.type) << ": " << mutated.text << " decoded as "
            << encoded;
      }
    }
  }
  // Integer fields (tenants, sites, processes, counts, watermarks) must
  // have refused the out-of-range and fractional values.
  EXPECT_GT(rejected, 0);
}

TEST(WalCodecFuzzTest, IntegerFieldsRefuseValuesOutsideTheirType) {
  EXPECT_THROW(decode_sched_request(
                   R"({"tenant":1e30,"request_time":1.0,"severity":0.5})"),
               WalCorrupt);
  EXPECT_THROW(decode_sched_request(
                   R"({"tenant":2147483648,"request_time":1.0,"severity":0.5})"),
               WalCorrupt);
  EXPECT_EQ(decode_sched_request(
                R"({"tenant":-2147483648,"request_time":1.0,"severity":0.5})")
                .tenant,
            -2147483647 - 1);
  EXPECT_THROW(decode_run_begin(
                   R"({"seed":-1,"tenants":8,"sites":4,"policy":"fifo"})"),
               WalCorrupt);
  EXPECT_THROW(decode_run_begin(
                   R"({"seed":1.8446744073709552e19,"tenants":8,"sites":4,"policy":"fifo"})"),
               WalCorrupt);
  EXPECT_EQ(decode_run_begin(
                R"({"seed":9007199254740992,"tenants":8,"sites":4,"policy":"fifo"})")
                .seed,
            std::uint64_t{1} << 53);
  EXPECT_THROW(decode_sched_grant(
                   R"({"tenant":1,"granted_at":2.0,"attempts":1,"current":[0],)"
                   R"("target":[1],"view_capacities":[2.5]})"),
               WalCorrupt);
  EXPECT_THROW(decode_snapshot_state(R"({"watermark":0.5})"), WalCorrupt);
}

}  // namespace
}  // namespace geomap::recover

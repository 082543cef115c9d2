// Crash-consistent control plane: WAL format and durability model,
// payload codec round-trips against the live emitters, crash-point
// injection, recovery replay, the requeue-timer-fires-once guarantee,
// and the exhaustive kill-at-every-point matrix.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "fault/crash.h"
#include "fault/fault_plan.h"
#include "migrate/executor.h"
#include "obs/collector.h"
#include "obs/detector.h"
#include "obs/eventlog.h"
#include "obs/incident.h"
#include "recover/driver.h"
#include "recover/records.h"
#include "recover/recovery.h"
#include "recover/wal.h"
#include "tenancy/scheduler.h"
#include "tenancy/soak.h"
#include "tenancy/substrate.h"
#include "test_util.h"

namespace geomap::recover {
namespace {

using fault::CrashInjector;
using fault::CrashTriggered;

constexpr double kMiB = 1024.0 * 1024.0;

/// Fresh temp directory per test, wiped on both ends.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

WalOptions nofsync() {
  WalOptions o;
  o.fsync = false;
  return o;
}

RunBeginRecord small_run() {
  RunBeginRecord rb;
  rb.seed = 9;
  rb.tenants = 4;
  rb.sites = 3;
  rb.policy = "fifo";
  return rb;
}

SchedRequestRecord request_record(int tenant, Seconds t, double severity) {
  SchedRequestRecord r;
  r.tenant = tenant;
  r.request_time = t;
  r.severity = severity;
  return r;
}

int wal_files(const std::string& dir) {
  int n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().filename().string().rfind("wal-", 0) == 0) n += 1;
  }
  return n;
}

bool any_contains(const std::vector<std::string>& lines,
                  const std::string& needle) {
  for (const std::string& l : lines) {
    if (l.find(needle) != std::string::npos) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// WAL format + durability model

TEST(WalTest, AppendSyncRoundTripAndUnsyncedLoss) {
  TempDir dir("geomap-recover-roundtrip");
  {
    Wal wal(dir.str(), nofsync());
    wal.append(WalRecordType::kRunBegin, 0, encode_run_begin(small_run()));
    wal.append(WalRecordType::kSchedRequest, 1.5,
               encode_sched_request(request_record(3, 1.5, 0.25)));
    wal.sync();
    // Buffered but never synced: dies with the process.
    wal.append(WalRecordType::kRunEnd, 2.0, "{}");
  }
  const WalRecovery rec = read_wal(dir.str());
  ASSERT_EQ(rec.records.size(), 2u);
  EXPECT_EQ(rec.dropped_torn, 0);
  EXPECT_EQ(rec.records[0].type, WalRecordType::kRunBegin);
  EXPECT_EQ(rec.records[0].lsn, 1u);
  EXPECT_EQ(rec.records[1].type, WalRecordType::kSchedRequest);
  EXPECT_EQ(rec.records[1].lsn, 2u);
  EXPECT_EQ(rec.records[1].t, 1.5);
  const RunBeginRecord rb = decode_run_begin(rec.records[0].payload);
  EXPECT_EQ(rb.seed, 9u);
  EXPECT_EQ(rb.tenants, 4);
  EXPECT_EQ(rb.sites, 3);
  EXPECT_EQ(rb.policy, "fifo");
  const SchedRequestRecord rq = decode_sched_request(rec.records[1].payload);
  EXPECT_EQ(rq.tenant, 3);
  EXPECT_EQ(rq.request_time, 1.5);
  EXPECT_EQ(rq.severity, 0.25);
  EXPECT_EQ(rec.next_lsn, 3u);
}

TEST(WalTest, NewGenerationStartsFreshSegmentWithMonotonicLsns) {
  TempDir dir("geomap-recover-generations");
  {
    Wal wal(dir.str(), nofsync());
    wal.append(WalRecordType::kRunBegin, 0, encode_run_begin(small_run()));
    wal.sync();
  }
  {
    Wal wal(dir.str(), nofsync());
    wal.append(WalRecordType::kSchedRequest, 1.0,
               encode_sched_request(request_record(0, 1.0, 1.0)));
    wal.sync();
  }
  const WalRecovery rec = read_wal(dir.str());
  EXPECT_EQ(rec.segments_read, 2);
  ASSERT_EQ(rec.records.size(), 2u);
  EXPECT_LT(rec.records[0].lsn, rec.records[1].lsn);
}

TEST(WalTest, TruncatedTailIsDroppedAndPrefixRecovered) {
  TempDir dir("geomap-recover-torn-tail");
  {
    Wal wal(dir.str(), nofsync());
    wal.append(WalRecordType::kRunBegin, 0, encode_run_begin(small_run()));
    wal.append(WalRecordType::kSchedRequest, 1.0,
               encode_sched_request(request_record(0, 1.0, 1.0)));
    wal.append(WalRecordType::kSchedRequest, 2.0,
               encode_sched_request(request_record(1, 2.0, 0.5)));
    wal.sync();
  }
  // Chop the last record in half, as a kill mid-write would.
  const std::filesystem::path seg = dir.path / "wal-000001.log";
  std::string contents;
  {
    std::ifstream is(seg, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    contents = os.str();
  }
  ASSERT_FALSE(contents.empty());
  contents.resize(contents.size() - 20);
  {
    std::ofstream os(seg, std::ios::binary | std::ios::trunc);
    os << contents;
  }
  const WalRecovery rec = read_wal(dir.str());
  EXPECT_EQ(rec.dropped_torn, 1);
  ASSERT_EQ(rec.records.size(), 2u);
  EXPECT_EQ(decode_sched_request(rec.records[1].payload).tenant, 0);
}

TEST(WalTest, MidFileCorruptionIsLoud) {
  TempDir dir("geomap-recover-corrupt");
  {
    Wal wal(dir.str(), nofsync());
    wal.append(WalRecordType::kRunBegin, 0, encode_run_begin(small_run()));
    wal.append(WalRecordType::kSchedRequest, 1.0,
               encode_sched_request(request_record(0, 1.0, 1.0)));
    wal.append(WalRecordType::kSchedRequest, 2.0,
               encode_sched_request(request_record(1, 2.0, 0.5)));
    wal.sync();
  }
  const std::filesystem::path seg = dir.path / "wal-000001.log";
  std::string contents;
  {
    std::ifstream is(seg, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    contents = os.str();
  }
  // Flip one payload byte of the FIRST record: a bad checksum anywhere
  // but a segment's last line must throw, never silently drop.
  const std::size_t eol = contents.find('\n');
  ASSERT_NE(eol, std::string::npos);
  const std::size_t at = eol - 2;
  contents[at] = contents[at] == 'X' ? 'Y' : 'X';
  {
    std::ofstream os(seg, std::ios::binary | std::ios::trunc);
    os << contents;
  }
  EXPECT_THROW(read_wal(dir.str()), WalCorrupt);
}

TEST(WalTest, TornSyncCrashLosesOnlyTheLastBufferedRecord) {
  TempDir dir("geomap-recover-torn-sync");
  Wal wal(dir.str(), nofsync());
  wal.append(WalRecordType::kRunBegin, 0, encode_run_begin(small_run()));
  wal.sync();
  wal.append(WalRecordType::kSchedRequest, 1.0,
             encode_sched_request(request_record(0, 1.0, 1.0)));
  wal.append(WalRecordType::kSchedRequest, 2.0,
             encode_sched_request(request_record(1, 2.0, 0.5)));
  CrashInjector::instance().arm("wal.sync.torn");
  EXPECT_THROW(wal.sync(), CrashTriggered);
  EXPECT_FALSE(CrashInjector::instance().armed());

  const WalRecovery rec = read_wal(dir.str());
  EXPECT_EQ(rec.dropped_torn, 1);
  ASSERT_EQ(rec.records.size(), 2u);
  EXPECT_EQ(decode_sched_request(rec.records[1].payload).tenant, 0);
}

TEST(WalTest, SnapshotCompactsSegmentsAndReplayFoldsIt) {
  TempDir dir("geomap-recover-snapshot");
  Wal wal(dir.str(), nofsync());
  wal.append(WalRecordType::kRunBegin, 0, encode_run_begin(small_run()));
  wal.append(WalRecordType::kSchedRequest, 1.0,
             encode_sched_request(request_record(0, 1.0, 1.0)));
  wal.sync();
  SnapshotStateRecord st;
  st.watermark = 7;
  wal.snapshot(2.0, encode_snapshot_state(st));
  EXPECT_EQ(wal_files(dir.str()), 1);  // old segment deleted
  wal.append(WalRecordType::kSchedRequest, 3.0,
             encode_sched_request(request_record(1, 3.0, 0.5)));
  wal.sync();

  const WalRecovery rec = read_wal(dir.str());
  const RecoveredControlPlane rcp = replay_wal(rec.records);
  EXPECT_TRUE(rcp.has_run);
  EXPECT_EQ(rcp.run.seed, 9u);
  EXPECT_EQ(rcp.watermark, 7u);
  ASSERT_EQ(rcp.requests.size(), 2u);
  EXPECT_EQ(rcp.requests[0].tenant, 0);
  EXPECT_EQ(rcp.requests[1].tenant, 1);
}

TEST(WalTest, CrashBeforeCompactionLeavesAConsistentLog) {
  TempDir dir("geomap-recover-compact-crash");
  Wal wal(dir.str(), nofsync());
  wal.append(WalRecordType::kRunBegin, 0, encode_run_begin(small_run()));
  wal.append(WalRecordType::kSchedRequest, 1.0,
             encode_sched_request(request_record(0, 1.0, 1.0)));
  wal.sync();
  SnapshotStateRecord st;
  st.watermark = 5;
  CrashInjector::instance().arm("wal.compact.before");
  EXPECT_THROW(wal.snapshot(2.0, encode_snapshot_state(st)), CrashTriggered);
  // The snapshot is durable, the redundant old segment survived — replay
  // must fold to the same state either way.
  EXPECT_EQ(wal_files(dir.str()), 2);
  const RecoveredControlPlane rcp = replay_wal(read_wal(dir.str()).records);
  EXPECT_TRUE(rcp.has_run);
  EXPECT_EQ(rcp.watermark, 5u);
  ASSERT_EQ(rcp.requests.size(), 1u);
  EXPECT_EQ(rcp.requests[0].tenant, 0);
}

TEST(WalTest, StrayFilesBesideTheSegmentsAreNotRead) {
  TempDir dir("geomap-recover-stray-names");
  {
    Wal wal(dir.str(), nofsync());
    wal.append(WalRecordType::kRunBegin, 0, encode_run_begin(small_run()));
    wal.sync();
  }
  {
    Wal wal(dir.str(), nofsync());
    wal.append(WalRecordType::kSchedRequest, 1.0,
               encode_sched_request(request_record(0, 1.0, 1.0)));
    wal.sync();
  }
  const WalRecovery clean = read_wal(dir.str());
  ASSERT_EQ(clean.segments_read, 2);

  // Copies of real segments under names that only start like one: a
  // backup, a temporary, negative and zero indices.
  namespace fs = std::filesystem;
  const fs::path last = dir.path / "wal-000002.log";
  for (const char* stray : {"wal-000002.log.bak", "wal-3.tmp", "wal--2.log",
                            "wal--00002.log", "wal-000000.log"}) {
    fs::copy_file(last, dir.path / stray);
  }
  const WalRecovery rec = read_wal(dir.str());
  EXPECT_EQ(rec.segments_read, clean.segments_read);
  EXPECT_EQ(rec.next_segment, clean.next_segment);
  EXPECT_EQ(rec.next_lsn, clean.next_lsn);
  EXPECT_EQ(rec.dropped_torn, clean.dropped_torn);
  ASSERT_EQ(rec.records.size(), clean.records.size());
  for (std::size_t i = 0; i < rec.records.size(); ++i) {
    EXPECT_EQ(rec.records[i].lsn, clean.records[i].lsn);
    EXPECT_EQ(rec.records[i].type, clean.records[i].type);
    EXPECT_EQ(rec.records[i].payload, clean.records[i].payload);
  }
}

TEST(WalTest, NonFiniteTimeIsRefusedWhenWritten) {
  // parse_wal_line reads only finite times, so the writer refuses the
  // rest instead of logging a line that replays as corrupt or torn.
  for (const double t : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW((void)encode_wal_line(1, WalRecordType::kRunEnd, t, "{}"),
                 InvalidArgument)
        << t;
  }
  TempDir dir("geomap-recover-non-finite-time");
  {
    Wal wal(dir.str(), nofsync());
    wal.append(WalRecordType::kRunBegin, 0, encode_run_begin(small_run()));
    EXPECT_THROW(wal.append(WalRecordType::kRunEnd,
                            std::numeric_limits<double>::quiet_NaN(), "{}"),
                 InvalidArgument);
    EXPECT_EQ(wal.append(WalRecordType::kRunEnd, 2.0, "{}"), 2u);
    wal.sync();
  }
  const WalRecovery rec = read_wal(dir.str());
  ASSERT_EQ(rec.records.size(), 2u);
  EXPECT_EQ(rec.records[1].lsn, 2u);
  EXPECT_EQ(rec.records[1].t, 2.0);
  EXPECT_EQ(rec.dropped_torn, 0);
}

// ---------------------------------------------------------------------------
// Crash injector semantics

TEST(CrashInjectorTest, OneShotArmWithSkipFiresOnExactOrdinal) {
  CrashInjector& inj = CrashInjector::instance();
  inj.reset_counts();
  inj.arm("test.point", /*skip=*/1);
  inj.hit("test.point");  // skipped
  EXPECT_TRUE(inj.armed());
  EXPECT_THROW(inj.hit("test.point"), CrashTriggered);
  EXPECT_FALSE(inj.armed());  // fired => disarmed
  inj.hit("test.point");      // harmless now
  EXPECT_EQ(inj.hits("test.point"), 3u);
  const std::vector<std::string> seen = inj.points_seen();
  EXPECT_TRUE(std::find(seen.begin(), seen.end(), "test.point") != seen.end());
}

// ---------------------------------------------------------------------------
// Producer payloads round-trip through the codecs (pins the local
// encoders in detector.cpp / executor.cpp to the decoders)

TEST(RecoverCodecTest, DetectorWalRecordsMatchItsEpisodes) {
  TempDir dir("geomap-recover-detector-codec");
  Wal wal(dir.str(), nofsync());
  obs::DegradationDetector d;
  d.set_wal(&wal);
  for (int i = 0; i < 4; ++i) {
    d.observe_latency_ratio(0, 1, static_cast<Seconds>(i), 3.0);
  }
  for (int i = 4; i < 30; ++i) {
    d.observe_latency_ratio(0, 1, static_cast<Seconds>(i), 1.0);
  }
  d.observe_timeout(2, 3, 5.0);

  const std::vector<obs::DegradationEvent> episodes = d.events();
  ASSERT_GE(episodes.size(), 2u);

  const WalRecovery rec = read_wal(dir.str());
  std::vector<obs::DegradationEvent> onsets;
  std::vector<obs::DegradationEvent> clears;
  for (const WalRecord& r : rec.records) {
    if (r.type == WalRecordType::kDetectorOnset) {
      onsets.push_back(decode_detector_episode(r.payload).event);
    } else if (r.type == WalRecordType::kDetectorClear) {
      clears.push_back(decode_detector_episode(r.payload).event);
    }
  }
  ASSERT_EQ(onsets.size(), episodes.size());
  for (const obs::DegradationEvent& e : episodes) {
    const auto match = [&e](const obs::DegradationEvent& o) {
      return o.src == e.src && o.dst == e.dst && o.kind == e.kind &&
             o.onset_vtime == e.onset_vtime &&
             o.detect_vtime == e.detect_vtime;
    };
    EXPECT_TRUE(std::any_of(onsets.begin(), onsets.end(), match))
        << "no onset record for episode " << e.src << "->" << e.dst;
    const bool closed = std::isfinite(e.end_vtime);
    const auto closed_match = [&e](const obs::DegradationEvent& c) {
      return c.src == e.src && c.dst == e.dst && c.kind == e.kind &&
             c.end_vtime == e.end_vtime;
    };
    EXPECT_EQ(std::any_of(clears.begin(), clears.end(), closed_match), closed);
  }
}

TEST(RecoverCodecTest, DetectorCheckpointSplitFeedIsEquivalent) {
  std::vector<obs::LinkSample> samples;
  for (int i = 0; i < 4; ++i) {
    samples.push_back({0, 1, 0, static_cast<Seconds>(i), 3.0});
  }
  for (int i = 4; i < 30; ++i) {
    samples.push_back({0, 1, 0, static_cast<Seconds>(i), 1.0});
  }
  samples.push_back({2, 3, 2, 5.0, 0.0});
  samples.push_back({1, 2, 1, 6.0, 2.0});

  obs::DegradationDetector full;
  for (const obs::LinkSample& s : samples) obs::feed_sample(full, s);
  const std::vector<obs::DegradationEvent> expected = full.events();

  for (const std::size_t split : {std::size_t{0}, std::size_t{5},
                                  std::size_t{13}, std::size_t{27},
                                  samples.size()}) {
    obs::DegradationDetector a;
    for (std::size_t i = 0; i < split; ++i) obs::feed_sample(a, samples[i]);
    obs::DegradationDetector b;
    b.restore(a.checkpoint());
    for (std::size_t i = split; i < samples.size(); ++i) {
      obs::feed_sample(b, samples[i]);
    }
    const std::vector<obs::DegradationEvent> got = b.events();
    ASSERT_EQ(got.size(), expected.size()) << "split at " << split;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].src, expected[i].src);
      EXPECT_EQ(got[i].dst, expected[i].dst);
      EXPECT_EQ(got[i].kind, expected[i].kind);
      EXPECT_EQ(got[i].onset_vtime, expected[i].onset_vtime);
      EXPECT_EQ(got[i].detect_vtime, expected[i].detect_vtime);
      EXPECT_EQ(got[i].end_vtime, expected[i].end_vtime);
      EXPECT_EQ(got[i].severity, expected[i].severity);
      EXPECT_EQ(got[i].confidence, expected[i].confidence);
    }
  }
}

TEST(RecoverCodecTest, ExecutorWalJournalRoundTripsAndRebuilds) {
  const mapping::MappingProblem problem =
      testutil::random_problem(6, 0.0, /*seed=*/7, /*degree=*/3, /*slack=*/2);
  const Mapping current{0, 0, 1, 1, 2, 2};
  const Mapping target{3, 3, 1, 1, 2, 2};
  const fault::FaultPlan plan;

  TempDir dir("geomap-recover-executor-codec");
  Wal wal(dir.str(), nofsync());
  migrate::MigrationOptions options;
  options.bytes_per_process = 10.0 * kMiB;
  options.chunk_bytes = 1.0 * kMiB;
  options.wal = &wal;
  options.wal_tenant = 5;
  const migrate::MigrationReport report =
      migrate::execute_migration(problem, current, target, plan, 0.0, options);
  ASSERT_FALSE(report.events.empty());

  std::vector<MigRecord> migs;
  for (const WalRecord& r : read_wal(dir.str()).records) {
    if (r.type == WalRecordType::kMigReserve ||
        r.type == WalRecordType::kMigRelease ||
        r.type == WalRecordType::kMigChunk ||
        r.type == WalRecordType::kMigCommit ||
        r.type == WalRecordType::kMigRollback ||
        r.type == WalRecordType::kMigReplan) {
      MigRecord m = decode_mig(r.type, r.payload);
      m.event.t = r.t;
      migs.push_back(std::move(m));
    }
  }
  ASSERT_EQ(migs.size(), report.events.size());
  // The WAL journals in emission order; the report is time-sorted
  // (stable) on finish. Same stable sort on the records recovers the
  // exact report order.
  std::stable_sort(migs.begin(), migs.end(),
                   [](const MigRecord& a, const MigRecord& b) {
                     return a.event.t < b.event.t;
                   });
  for (std::size_t i = 0; i < migs.size(); ++i) {
    EXPECT_EQ(migs[i].tenant, 5);
    EXPECT_EQ(migs[i].event.kind, report.events[i].kind);
    EXPECT_EQ(migs[i].event.t, report.events[i].t);
    EXPECT_EQ(migs[i].event.process, report.events[i].process);
    EXPECT_EQ(migs[i].event.site_from, report.events[i].site_from);
    EXPECT_EQ(migs[i].event.site_to, report.events[i].site_to);
    EXPECT_EQ(migs[i].event.bytes, report.events[i].bytes);
  }

  const migrate::MigrationReport rebuilt = rebuild_migration_report(
      migs, current, target, 0.0, report.finish_time);
  EXPECT_EQ(rebuilt.final_mapping, report.final_mapping);
  EXPECT_EQ(rebuilt.processes_committed, report.processes_committed);
  EXPECT_EQ(rebuilt.rollbacks, report.rollbacks);
  EXPECT_EQ(rebuilt.replans, report.replans);
  EXPECT_EQ(rebuilt.bytes_sent, report.bytes_sent);
  EXPECT_EQ(rebuilt.max_downtime, report.max_downtime);
  EXPECT_EQ(rebuilt.total_downtime, report.total_downtime);
}

// ---------------------------------------------------------------------------
// The requeue-timer guarantee (a backoff timer pending at the crash
// fires exactly once after recovery)

TEST(RecoverStormTest, RequeuedRetryTimerFiresExactlyOnceAfterRecovery) {
  tenancy::SubstrateOptions sub;
  sub.num_sites = 4;
  sub.num_tenants = 6;
  const auto doctored = [&sub]() {
    tenancy::Substrate s = tenancy::make_substrate(17, sub);
    // No free slot anywhere: every remap attempt is infeasible forever.
    s.site_capacities = s.residents();
    return s;
  };
  tenancy::Substrate probe = doctored();
  const std::vector<int> residents = probe.residents();
  const SiteId failed = static_cast<SiteId>(std::distance(
      residents.begin(),
      std::max_element(residents.begin(), residents.end())));
  fault::FaultPlan plan;
  plan.add_site_outage(failed, 1.0);

  std::vector<tenancy::RemapRequest> requests;
  for (const tenancy::Tenant& t : probe.tenants) {
    int stranded = 0;
    for (const SiteId s : t.mapping) {
      if (s == failed) stranded += 1;
    }
    if (stranded == 0) continue;
    tenancy::RemapRequest r;
    r.tenant = t.id;
    r.request_time = 1.0;
    r.severity = static_cast<double>(stranded) /
                 static_cast<double>(t.mapping.size());
    requests.push_back(r);
  }
  ASSERT_FALSE(requests.empty());
  requests.resize(1);

  tenancy::SchedulerOptions options;
  options.migrate.bytes_per_process = 2.0 * kMiB;
  options.migrate.chunk_bytes = 512.0 * 1024;
  options.remap.bytes_per_process = 2.0 * kMiB;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff = 0.5;

  // Uninterrupted baseline: 3 attempts, 2 requeues, then give-up.
  tenancy::Substrate base_sub = doctored();
  const tenancy::StormReport baseline =
      tenancy::run_remap_storm(base_sub, plan, failed, requests, options);
  ASSERT_EQ(baseline.recoveries.size(), 1u);
  ASSERT_EQ(baseline.recoveries[0].attempts, 3);
  ASSERT_EQ(baseline.requeues, 2);

  // Kill the scheduler at the give-up append: both requeues (and their
  // backoff timers) are durable, the give-up is not.
  TempDir dir("geomap-recover-requeue-timer");
  {
    tenancy::Substrate crash_sub = doctored();
    Wal wal(dir.str(), nofsync());
    tenancy::SchedulerOptions crashing = options;
    crashing.wal = &wal;
    CrashInjector::instance().arm("wal.append.sched_give_up.before");
    EXPECT_THROW(tenancy::run_remap_storm(crash_sub, plan, failed, requests,
                                          crashing),
                 CrashTriggered);
  }

  const RecoveredControlPlane rcp = replay_wal(read_wal(dir.str()).records);
  ASSERT_EQ(rcp.requests.size(), 1u);
  ASSERT_EQ(rcp.requeues.size(), 2u);
  EXPECT_TRUE(rcp.give_ups.empty());
  EXPECT_TRUE(rcp.grants.empty());
  EXPECT_FALSE(rcp.has_interrupted);

  const tenancy::StormResume resume = build_storm_resume(rcp, requests);
  ASSERT_EQ(resume.pending.size(), 1u);
  EXPECT_EQ(resume.pending[0].attempts, 2);
  EXPECT_FALSE(resume.pending[0].done);
  // The pending backoff timer survives at its recorded instant...
  EXPECT_EQ(resume.pending[0].next_eligible, rcp.requeues[1].next_eligible);

  // ...and fires exactly once: the resumed storm consumes attempt 3 and
  // gives up with the baseline's exact counters. A re-fired timer would
  // show up as extra attempts/requeues; a lost one as a hung request.
  tenancy::Substrate resumed_sub = doctored();
  const tenancy::StormReport resumed = tenancy::run_remap_storm(
      resumed_sub, plan, failed, requests, options, &resume);
  ASSERT_EQ(resumed.recoveries.size(), 1u);
  EXPECT_EQ(resumed.recoveries[0].attempts, 3);
  EXPECT_TRUE(resumed.recoveries[0].gave_up);
  EXPECT_FALSE(resumed.recoveries[0].granted);
  EXPECT_EQ(resumed.requeues, 2);
  EXPECT_EQ(resumed.gave_up, 1);
  EXPECT_EQ(resumed.storm_drain_seconds, baseline.storm_drain_seconds);
}

// ---------------------------------------------------------------------------
// Recoverable soak driver + crash matrix

RecoverableSoakOptions small_recoverable(const std::string& wal_dir,
                                         obs::Collector* collector) {
  RecoverableSoakOptions o;
  o.soak.substrate.num_sites = 4;
  o.soak.substrate.num_tenants = 8;
  o.soak.collector = collector;
  o.wal_dir = wal_dir;
  o.wal.fsync = false;
  o.snapshot_every_samples = 16;
  return o;
}

TEST(RecoverDriverTest, FreshCaseIsCleanDeterministicAndIdempotent) {
  TempDir dir("geomap-recover-driver-fresh");
  obs::Collector c1;
  const RecoverableCaseResult r1 =
      run_recoverable_case(17, small_recoverable(dir.str(), &c1));
  EXPECT_FALSE(r1.resumed);
  EXPECT_EQ(r1.recoveries, 0);
  EXPECT_TRUE(r1.recovery_violations.empty())
      << r1.recovery_violations.front();
  EXPECT_GE(r1.soak_case.requests, 1);
  EXPECT_TRUE(r1.soak_case.violations.empty());

  // Same seed, wiped WAL: bit-identical outcome digest.
  std::filesystem::remove_all(dir.path);
  obs::Collector c2;
  const RecoverableCaseResult r2 =
      run_recoverable_case(17, small_recoverable(dir.str(), &c2));
  EXPECT_EQ(r2.digest, r1.digest);

  // Restarting on a COMPLETED WAL (killed after run_end) replays the
  // sealed run and reproduces the digest without re-running anything.
  obs::Collector c3;
  const RecoverableCaseResult r3 =
      run_recoverable_case(17, small_recoverable(dir.str(), &c3));
  EXPECT_TRUE(r3.resumed);
  EXPECT_GE(r3.recoveries, 1);
  EXPECT_TRUE(r3.recovery_violations.empty())
      << r3.recovery_violations.front();
  EXPECT_EQ(r3.digest, r1.digest);
}

TEST(RecoverDriverTest, TargetedCrashPointsRecoverWithIdenticalDigest) {
  TempDir dir("geomap-recover-driver-targeted");
  CrashMatrixOptions mo;
  mo.base = small_recoverable(dir.str(), nullptr);
  mo.seed = 17;
  mo.points = {
      "wal.append.detect_decision.before",
      "wal.append.sched_grant.after",
      "wal.append.mig_commit.before",
      "wal.sync.torn",
      "wal.compact.after",
  };
  const CrashMatrixReport report = run_crash_matrix(mo);
  ASSERT_EQ(report.cases.size(), mo.points.size());
  EXPECT_TRUE(report.all_clean);
  EXPECT_EQ(report.points_clean, static_cast<int>(mo.points.size()));
  for (const CrashMatrixCase& c : report.cases) {
    EXPECT_TRUE(c.fired) << c.point << " never fired";
    EXPECT_TRUE(c.completed) << c.point;
    EXPECT_TRUE(c.digest_match)
        << c.point << ": digest " << c.digest << " != baseline "
        << report.baseline_digest;
    EXPECT_TRUE(c.recovery_violations.empty())
        << c.point << ": " << c.recovery_violations.front();
    EXPECT_GE(c.recoveries, 1) << c.point;
  }
}

TEST(RecoverDriverTest, ExhaustiveCrashMatrixIsClean) {
  TempDir dir("geomap-recover-driver-matrix");
  CrashMatrixOptions mo;
  mo.base = small_recoverable(dir.str(), nullptr);
  mo.seed = 17;  // full catalog (mo.points empty)
  const CrashMatrixReport report = run_crash_matrix(mo);
  EXPECT_EQ(report.cases.size(), crash_point_catalog().size());
  EXPECT_TRUE(report.all_clean);
  for (const CrashMatrixCase& c : report.cases) {
    EXPECT_TRUE(c.completed) << c.point;
    EXPECT_TRUE(c.digest_match) << c.point;
    EXPECT_TRUE(c.recovery_violations.empty())
        << c.point << ": " << c.recovery_violations.front();
  }
  // The storm-phase points must actually fire on this workload.
  for (const CrashMatrixCase& c : report.cases) {
    if (c.point == "wal.append.sched_grant.before" ||
        c.point == "wal.append.sched_finish.after" ||
        c.point == "wal.append.run_end.before" || c.point == "wal.sync.torn") {
      EXPECT_TRUE(c.fired) << c.point;
    }
  }
}

TEST(RecoverDriverTest, DeterministicEventStreamSurvivesACrash) {
  ::setenv("GEOMAP_PROFILE_DETERMINISTIC", "1", 1);
  TempDir base_dir("geomap-recover-driver-det-base");
  obs::Collector cb;
  run_recoverable_case(17, small_recoverable(base_dir.str(), &cb));
  std::ostringstream baseline;
  cb.events().write_jsonl(baseline);

  TempDir crash_dir("geomap-recover-driver-det-crash");
  {
    obs::Collector dead;
    CrashInjector::instance().arm("wal.append.sched_finish.before");
    EXPECT_THROW(
        run_recoverable_case(17, small_recoverable(crash_dir.str(), &dead)),
        CrashTriggered);
  }
  obs::Collector recovered;
  const RecoverableCaseResult r =
      run_recoverable_case(17, small_recoverable(crash_dir.str(), &recovered));
  EXPECT_TRUE(r.resumed);
  std::ostringstream resumed;
  recovered.events().write_jsonl(resumed);
  EXPECT_EQ(resumed.str(), baseline.str());
  ::unsetenv("GEOMAP_PROFILE_DETERMINISTIC");
}

/// The case's events in emission order, sequence numbers zeroed as
/// case_digest zeroes them.
std::vector<std::string> emitted_events(const obs::Collector& c) {
  std::vector<std::string> lines;
  for (obs::Event e : c.events().events_since(0)) {
    e.seq = 0;
    lines.push_back(obs::event_to_json(e));
  }
  return lines;
}

std::string incidents_json(const tenancy::MultiTenantSoakCase& c) {
  std::ostringstream os;
  obs::write_incidents_json(os, c.incidents, &c.attribution);
  return os.str();
}

/// A fresh WAL-backed case must reproduce the plain soak case exactly:
/// every case field, every recovery's final mapping and finish time, the
/// event stream in emission order, and the incidents with their
/// attribution totals.
void expect_same_as_plain_soak(std::uint64_t seed, int tenants, int sites) {
  SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
               std::to_string(tenants) + " tenants x " +
               std::to_string(sites) + " sites");
  TempDir dir("geomap-recover-driver-plain-" + std::to_string(seed));
  obs::Collector plain_collector;
  tenancy::MultiTenantSoakOptions soak;
  soak.substrate.num_sites = sites;
  soak.substrate.num_tenants = tenants;
  soak.collector = &plain_collector;
  const tenancy::MultiTenantSoakCase plain =
      tenancy::run_multitenant_soak_case(seed, soak);

  obs::Collector wal_collector;
  RecoverableSoakOptions ro;
  ro.soak = soak;
  ro.soak.collector = &wal_collector;
  ro.wal_dir = dir.str();
  ro.wal.fsync = false;
  const RecoverableCaseResult r = run_recoverable_case(seed, ro);
  ASSERT_FALSE(r.resumed);
  const tenancy::MultiTenantSoakCase& logged = r.soak_case;

  EXPECT_EQ(logged.seed, plain.seed);
  EXPECT_EQ(logged.tenants, plain.tenants);
  EXPECT_EQ(logged.primary_site, plain.primary_site);
  EXPECT_EQ(logged.outage_time, plain.outage_time);
  EXPECT_EQ(logged.detected, plain.detected);
  EXPECT_EQ(logged.suspected_correct, plain.suspected_correct);
  EXPECT_EQ(logged.detect_time, plain.detect_time);
  EXPECT_EQ(logged.requests, plain.requests);
  EXPECT_EQ(logged.storm.grant_order, plain.storm.grant_order);
  EXPECT_EQ(logged.storm.storm_drain_seconds, plain.storm.storm_drain_seconds);
  EXPECT_EQ(logged.storm.requeues, plain.storm.requeues);
  EXPECT_EQ(logged.storm.gave_up, plain.storm.gave_up);
  ASSERT_EQ(logged.storm.recoveries.size(), plain.storm.recoveries.size());
  for (std::size_t i = 0; i < plain.storm.recoveries.size(); ++i) {
    const tenancy::TenantRecovery& a = logged.storm.recoveries[i];
    const tenancy::TenantRecovery& b = plain.storm.recoveries[i];
    EXPECT_EQ(a.tenant, b.tenant) << "request " << i;
    EXPECT_EQ(a.request_time, b.request_time) << "request " << i;
    EXPECT_EQ(a.severity, b.severity) << "request " << i;
    EXPECT_EQ(a.attempts, b.attempts) << "request " << i;
    EXPECT_EQ(a.granted, b.granted) << "request " << i;
    EXPECT_EQ(a.gave_up, b.gave_up) << "request " << i;
    EXPECT_EQ(a.granted_at, b.granted_at) << "request " << i;
    EXPECT_EQ(a.finish_time, b.finish_time) << "request " << i;
    EXPECT_EQ(a.report.final_mapping, b.report.final_mapping)
        << "request " << i;
  }
  EXPECT_EQ(logged.fairness.stretch, plain.fairness.stretch);
  EXPECT_EQ(logged.fairness.jain_index, plain.fairness.jain_index);
  EXPECT_EQ(logged.fairness.mean_stretch, plain.fairness.mean_stretch);
  EXPECT_EQ(logged.fairness.p99_stretch, plain.fairness.p99_stretch);
  EXPECT_EQ(logged.fairness.max_stretch, plain.fairness.max_stretch);
  EXPECT_EQ(logged.invariants_checked, plain.invariants_checked);
  ASSERT_EQ(logged.violations.size(), plain.violations.size());
  for (std::size_t i = 0; i < plain.violations.size(); ++i) {
    EXPECT_EQ(logged.violations[i].t, plain.violations[i].t);
    EXPECT_EQ(logged.violations[i].message, plain.violations[i].message);
  }
  EXPECT_EQ(logged.attribution_scored, plain.attribution_scored);
  EXPECT_EQ(incidents_json(logged), incidents_json(plain));
  EXPECT_EQ(emitted_events(wal_collector), emitted_events(plain_collector));
}

TEST(RecoverDriverTest, RefusesASeedItsWalCannotRecord) {
  TempDir dir("geomap-recover-driver-big-seed");
  obs::Collector c;
  const std::uint64_t seed = (std::uint64_t{1} << 53) + 1;
  EXPECT_THROW(run_recoverable_case(seed, small_recoverable(dir.str(), &c)),
               InvalidArgument);
  EXPECT_TRUE(std::filesystem::is_empty(dir.path));
}

TEST(RecoverDriverTest, LargestRecordableSeedRestartsFromItsWal) {
  TempDir dir("geomap-recover-driver-2p53");
  const std::uint64_t seed = std::uint64_t{1} << 53;
  obs::Collector c1;
  const RecoverableCaseResult first =
      run_recoverable_case(seed, small_recoverable(dir.str(), &c1));
  EXPECT_FALSE(first.resumed);
  obs::Collector c2;
  const RecoverableCaseResult again =
      run_recoverable_case(seed, small_recoverable(dir.str(), &c2));
  EXPECT_TRUE(again.resumed);
  EXPECT_TRUE(again.recovery_violations.empty())
      << again.recovery_violations.front();
  EXPECT_EQ(again.digest, first.digest);
}

TEST(RecoverDriverTest, FreshCaseMatchesThePlainSoakCase) {
  for (const std::uint64_t seed : {17u, 5u, 2017u}) {
    expect_same_as_plain_soak(seed, 8, 4);
  }
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    expect_same_as_plain_soak(seed, 100, 6);
  }
}

// ---------------------------------------------------------------------------
// The post-hoc auditor rejects doctored logs

TEST(RecoverAuditTest, FlagsDoubleCommitInTheDurablePrefix) {
  TempDir dir("geomap-recover-audit-double-commit");
  Wal wal(dir.str(), nofsync());
  RunBeginRecord rb = small_run();
  rb.tenants = 2;
  rb.sites = 2;
  wal.append(WalRecordType::kRunBegin, 0, encode_run_begin(rb));
  wal.append(WalRecordType::kSchedRequest, 1.0,
             encode_sched_request(request_record(0, 1.0, 1.0)));
  SchedGrantRecord g;
  g.tenant = 0;
  g.granted_at = 1.0;
  g.attempts = 1;
  g.current = {0, 0};
  g.target = {1, 1};
  g.view_capacities = {2.0, 2.0};
  wal.append(WalRecordType::kSchedGrant, 1.0, encode_sched_grant(g));
  MigRecord m;
  m.tenant = 0;
  m.event.kind = fault::MigrationEventKind::kCommit;
  m.event.t = 1.5;
  m.event.process = 0;
  m.event.site_from = 0;
  m.event.site_to = 1;
  m.downtime = 0.1;
  wal.append(WalRecordType::kMigCommit, 1.5, encode_mig(m));
  m.event.t = 1.6;
  wal.append(WalRecordType::kMigCommit, 1.6, encode_mig(m));
  wal.sync();

  const std::vector<std::string> violations =
      check_recovery_invariants(read_wal(dir.str()).records);
  EXPECT_TRUE(any_contains(violations, "double commit"))
      << "violations: " << violations.size();
}

TEST(RecoverAuditTest, FlagsJournalRecordsOutsideAnyGrant) {
  TempDir dir("geomap-recover-audit-orphan-mig");
  Wal wal(dir.str(), nofsync());
  RunBeginRecord rb = small_run();
  rb.tenants = 2;
  rb.sites = 2;
  wal.append(WalRecordType::kRunBegin, 0, encode_run_begin(rb));
  wal.append(WalRecordType::kSchedRequest, 1.0,
             encode_sched_request(request_record(0, 1.0, 1.0)));
  MigRecord m;
  m.tenant = 0;
  m.event.kind = fault::MigrationEventKind::kCommit;
  m.event.t = 1.5;
  m.event.process = 0;
  m.event.site_from = 0;
  m.event.site_to = 1;
  wal.append(WalRecordType::kMigCommit, 1.5, encode_mig(m));
  wal.sync();

  const std::vector<std::string> violations =
      check_recovery_invariants(read_wal(dir.str()).records);
  EXPECT_TRUE(any_contains(violations, "outside any open grant"))
      << "violations: " << violations.size();
}

TEST(RecoverAuditTest, FlagsNonIncreasingAttemptsAndEmptyLogs) {
  EXPECT_FALSE(check_recovery_invariants({}).empty());

  TempDir dir("geomap-recover-audit-attempts");
  Wal wal(dir.str(), nofsync());
  wal.append(WalRecordType::kRunBegin, 0, encode_run_begin(small_run()));
  wal.append(WalRecordType::kSchedRequest, 1.0,
             encode_sched_request(request_record(0, 1.0, 1.0)));
  SchedRequeueRecord rq;
  rq.tenant = 0;
  rq.t = 1.5;
  rq.attempts = 2;
  rq.next_eligible = 2.0;
  wal.append(WalRecordType::kSchedRequeue, 1.5, encode_sched_requeue(rq));
  rq.t = 2.5;  // attempts did not advance: a twice-fired timer's signature
  wal.append(WalRecordType::kSchedRequeue, 2.5, encode_sched_requeue(rq));
  wal.sync();
  EXPECT_FALSE(check_recovery_invariants(read_wal(dir.str()).records).empty());
}

}  // namespace
}  // namespace geomap::recover

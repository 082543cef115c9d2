#include "recover/driver.h"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>

#include "common/crc32.h"
#include "common/error.h"
#include "common/json_writer.h"
#include "common/timer.h"
#include "fault/crash.h"
#include "obs/collector.h"
#include "recover/recovery.h"

namespace geomap::recover {

void RecoverableSoakOptions::validate() const {
  soak.validate();
  GEOMAP_CHECK_ARG(!wal_dir.empty(), "wal_dir must be set");
  GEOMAP_CHECK_ARG(snapshot_every_samples >= 0,
                   "snapshot_every_samples must be >= 0, got "
                       << snapshot_every_samples);
}

void CrashMatrixOptions::validate() const {
  base.validate();
  GEOMAP_CHECK_ARG(max_attempts >= 2,
                   "max_attempts must be >= 2 (one kill, one recovery), got "
                       << max_attempts);
}

namespace {

/// Canonical outcome digest: everything the WAL promises to preserve
/// across a crash. Timeline series are deliberately excluded (a resumed
/// run does not rebuild pre-crash executor series; the contract covers
/// events, incidents, and the storm outcome).
std::uint32_t case_digest(const tenancy::MultiTenantSoakCase& c,
                          const std::vector<obs::Event>& events) {
  std::ostringstream os;
  const auto d = [](double v) { return JsonWriter::format_double(v); };
  os << "seed " << c.seed << " tenants " << c.tenants << '\n';
  os << "decision " << c.detected << ' ' << c.suspected_correct << ' '
     << c.primary_site << ' ' << d(c.detect_time) << '\n';
  for (const tenancy::TenantRecovery& r : c.storm.recoveries) {
    os << "req " << r.tenant << ' ' << r.granted << ' ' << r.gave_up << ' '
       << r.attempts << ' ' << d(r.granted_at) << ' ' << d(r.finish_time)
       << '\n';
    if (r.granted) {
      os << "map " << r.tenant;
      for (const SiteId s : r.report.final_mapping) os << ' ' << s;
      os << '\n';
    }
  }
  os << "grants";
  for (const int t : c.storm.grant_order) os << ' ' << t;
  os << '\n';
  os << "requeues " << c.storm.requeues << " gave_up " << c.storm.gave_up
     << " drain " << d(c.storm.storm_drain_seconds) << '\n';
  os << "violations " << c.violations.size() << '\n';
  for (const fault::InvariantViolation& v : c.violations) {
    os << d(v.t) << ' ' << v.message << '\n';
  }
  os << "fairness " << d(c.fairness.jain_index) << ' '
     << d(c.fairness.mean_stretch) << ' ' << d(c.fairness.p99_stretch) << '\n';
  os << "incidents " << c.incidents.size() << '\n';
  // Events in canonical order with sequence numbers zeroed: emission
  // interleaving differs between a live run and re-emission + resume,
  // the content must not.
  std::vector<std::string> lines;
  lines.reserve(events.size());
  for (obs::Event e : events) {
    e.seq = 0;
    lines.push_back(obs::event_to_json(e));
  }
  std::sort(lines.begin(), lines.end());
  for (const std::string& line : lines) os << line << '\n';
  return crc32(os.str());
}

}  // namespace

RecoverableCaseResult run_recoverable_case(
    std::uint64_t seed, const RecoverableSoakOptions& options) {
  options.validate();
  GEOMAP_CHECK_ARG(options.soak.collector != nullptr,
                   "recoverable soak requires a collector");
  // run_begin stores the seed as a JSON number, which reads back through
  // a double: above 2^53 the WAL could name a different run.
  GEOMAP_CHECK_ARG(seed <= (std::uint64_t{1} << 53),
                   "seed " << seed << " exceeds 2^53, the largest a WAL "
                           << "records exactly");
  obs::EventLog* elog = &options.soak.collector->events();
  const std::uint64_t seq0 = elog->total();

  RecoverableCaseResult result;

  // Replay whatever a crashed predecessor made durable.
  Timer replay_timer;
  const WalRecovery prior = read_wal(options.wal_dir);
  RecoveredControlPlane rcp;
  if (!prior.records.empty()) rcp = replay_wal(prior.records);
  result.wal_replay_seconds = replay_timer.elapsed_seconds();
  result.wal_records_replayed = prior.records.size();
  result.resumed = rcp.has_run;
  result.recoveries = result.resumed ? rcp.recoveries + 1 : 0;

  // The case itself, every control-plane decision written ahead.
  Timer open_timer;
  Wal wal(options.wal_dir, options.wal);
  const double wal_open_seconds = open_timer.elapsed_seconds();
  tenancy::SoakCaseWal log;
  log.wal = &wal;
  log.resume = result.resumed ? &rcp : nullptr;
  log.replayed = prior.records.size();
  log.snapshot_every_samples = options.snapshot_every_samples;
  tenancy::SoakCaseRun run =
      tenancy::run_soak_case(seed, options.soak, log);
  result.soak_case = std::move(run.soak_case);
  result.recovery_seconds = wal_open_seconds + run.open_seconds;
  const tenancy::MultiTenantSoakCase& cse = result.soak_case;

  // The redone journal must extend the durable prefix field-for-field —
  // the no-double-commit / no-lost-grant certificate. The open grant is
  // the last one the log holds.
  if (result.resumed && rcp.has_interrupted && !rcp.grants.empty()) {
    const int tenant = rcp.grants.back().grant.tenant;
    const std::vector<fault::MigrationEvent>* redone = nullptr;
    for (const tenancy::TenantRecovery& rec : cse.storm.recoveries) {
      if (rec.tenant == tenant) redone = &rec.report.events;
    }
    std::string why;
    if (redone == nullptr) {
      result.recovery_violations.push_back(
          "interrupted tenant " + std::to_string(tenant) +
          " missing from the resumed storm report");
    } else if (!journal_prefix_consistent(rcp.interrupted_prefix, *redone,
                                          &why)) {
      result.recovery_violations.push_back("tenant " + std::to_string(tenant) +
                                           ": " + why);
    }
  }

  // Seal the run (idempotent: a predecessor that died after sealing
  // already has the record).
  if (!rcp.run_complete) {
    wal.append(WalRecordType::kRunEnd, run.recovery_end, "{}");
    wal.sync();
  }

  // Post-hoc audit: the whole surviving WAL must satisfy the recovery
  // invariants — double commits, lost grants, and twice-fired timers all
  // surface here.
  const WalRecovery audit = read_wal(options.wal_dir);
  for (std::string& v : check_recovery_invariants(audit.records)) {
    result.recovery_violations.push_back(std::move(v));
  }

  result.digest = case_digest(cse, elog->events_since(seq0));
  return result;
}

CrashMatrixReport run_crash_matrix(const CrashMatrixOptions& options) {
  options.validate();
  fault::CrashInjector& inj = fault::CrashInjector::instance();
  GEOMAP_CHECK_ARG(!inj.armed(),
                   "crash matrix needs the injector to itself (currently "
                   "armed at " << inj.armed_point() << ")");
  const std::vector<std::string> points =
      options.points.empty() ? crash_point_catalog() : options.points;

  const auto attempt = [&options]() {
    obs::Collector fresh;
    RecoverableSoakOptions opts = options.base;
    opts.soak.collector = &fresh;
    return run_recoverable_case(options.seed, opts);
  };
  const auto wipe = [&options]() {
    std::error_code ec;
    std::filesystem::remove_all(options.base.wal_dir, ec);
  };

  CrashMatrixReport report;
  wipe();
  report.baseline_digest = attempt().digest;

  for (const std::string& point : points) {
    wipe();
    CrashMatrixCase c;
    c.point = point;
    // recovery_begin boundaries only exist inside a recovery: kill the
    // run some other way first so there is a recovery to die in.
    if (point.rfind("wal.append.recovery_begin", 0) == 0) {
      inj.arm("wal.append.sched_finish.before");
      try {
        attempt();
      } catch (const fault::CrashTriggered&) {
        c.recoveries += 1;
      }
      inj.disarm();
    }
    inj.arm(point);
    for (int a = 0; a < options.max_attempts && !c.completed; ++a) {
      try {
        const RecoverableCaseResult r = attempt();
        c.completed = true;
        c.recoveries = std::max(c.recoveries, r.recoveries);
        c.digest = r.digest;
        c.digest_match = r.digest == report.baseline_digest;
        c.wal_records_replayed = r.wal_records_replayed;
        c.wal_replay_seconds = r.wal_replay_seconds;
        c.recovery_seconds = r.recovery_seconds;
        c.recovery_violations = r.recovery_violations;
      } catch (const fault::CrashTriggered&) {
        c.fired = true;
        c.recoveries += 1;
      }
    }
    inj.disarm();
    if (c.fired) report.points_fired += 1;
    if (c.clean()) {
      report.points_clean += 1;
    } else {
      report.all_clean = false;
    }
    report.cases.push_back(std::move(c));
  }
  return report;
}

}  // namespace geomap::recover

// Fault-recovery sweep: how expensive is losing a site, and how much of
// that cost does remapping claw back?
//
// For each app the geo-distributed mapping is computed on the healthy
// 4-region EC2 deployment, then a fault scenario is injected: the
// busiest site browns out (its links degrade by --factor at t=0 and by
// --factor again at t=60) and finally fails at the swept outage time.
// remap_on_outage() rebuilds the instance and reruns the mapper over the
// survivors. The deployment is provisioned with ceil(ranks/3) nodes per
// site so that any single-site outage leaves enough capacity.
//
// Output is a JSON array (stdout), one object per (app, factor,
// outage-time) cell with the pre-fault / degraded / post-remap
// alpha-beta costs and the one-time migration bill.
//
// --detector switches to the closed-loop head-to-head: the app actually
// *executes* on the virtual-time runtime under the fault plan, the
// degradation detector scans the per-link telemetry the run recorded
// (never the plan), remap_on_detection recovers from what was detected,
// and the oracle remap_on_outage recovers from the ground truth. Output
// becomes {"cells": [...]} with per-cell detection quality
// (precision/recall/latency vs the plan's truth windows) and the
// oracle-recovery fraction — how much of the oracle's cost improvement
// the detector-driven remap achieved.
//
// --migrate carries each oracle remap *out* with the migration executor:
// every relocated process runs the prepare/copy/commit protocol as real
// chunked flows on the degraded network, contending with the app's own
// replayed traffic. Cells report downtime, makespan-with-migration and
// rollback/replan counts, and every run's protocol journal is certified
// by the invariant checker (any violation fails the bench). The executor
// is deterministic, so this mode is the regression baseline for the
// migration path.
//
// --chaos N runs the full observe → detect → remap → migrate soak over N
// seeded random fault plans (src/migrate/soak.h) and exits 1 on any
// invariant violation. Statistical (threaded runtime), so it is a safety
// net, not a baseline. With --wal-dir D each case's decision + protocol
// journal is additionally archived through the control-plane WAL
// (fsync-disciplined append, then a full read-back + decode), and the
// JSON reports the archival/replay timings plus a round-trip bit — the
// chaos gate's smoke check that WAL encoding keeps up with the richest
// journals the executor produces.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/cli.h"
#include "common/json_writer.h"
#include "common/timer.h"
#include "recover/records.h"
#include "recover/wal.h"
#include "core/remap.h"
#include "fault/chaos.h"
#include "fault/fault_plan.h"
#include "migrate/executor.h"
#include "migrate/soak.h"
#include "obs/detector.h"

using namespace geomap;

namespace {

/// Site hosting the most processes — losing it is the worst case.
SiteId busiest_site(const Mapping& mapping, int num_sites) {
  std::vector<int> load(static_cast<std::size_t>(num_sites), 0);
  for (const SiteId s : mapping) load[static_cast<std::size_t>(s)] += 1;
  SiteId best = 0;
  for (SiteId s = 1; s < num_sites; ++s) {
    if (load[static_cast<std::size_t>(s)] > load[static_cast<std::size_t>(best)])
      best = s;
  }
  return best;
}

/// Fold every series a cell's private collector recorded into the shared
/// export collector, so the --obs-dir timeline artifact carries one
/// representative cell's telemetry (full keys round-trip as the name).
void fold_timeline(const obs::TimeSeriesRegistry& from,
                   obs::TimeSeriesRegistry& into) {
  for (const std::string& key : from.keys()) {
    const obs::TimeSeries* series = from.find(key);
    obs::TimeSeries& out = into.series(key);
    for (const obs::TimePoint& p : series->points()) out.record(p.t, p.value);
  }
}

int run_detector_mode(const CliParser& cli, bench::ObsSink& obs) {
  const int ranks = static_cast<int>(cli.get_int("ranks"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const bench::Ec2Context ctx((ranks + 2) / 3);

  // The brownout factor and the outage instants as fractions of each
  // app's healthy runtime makespan (absolute times like the oracle
  // sweep's 120 s would overshoot short virtual runs entirely).
  const double factor = 0.25;
  const std::vector<double> outage_fractions = {0.35, 0.65};

  core::RemapOptions options;
  options.bytes_per_process = cli.get_double("state-mib") * kMiB;
  options.collector = obs.collector();

  JsonWriter w(std::cout);
  w.begin_object();
  w.key("cells").begin_array();
  bool exported_cell = false;
  for (const apps::App* app : apps::all_apps()) {
    apps::AppConfig cfg = app->default_config(ranks);
    trace::CommMatrix comm = bench::profile_app(*app, cfg, ctx.calib.model);

    Rng rng(seed);
    ConstraintVector constraints = mapping::make_random_constraints(
        ranks, ctx.topo.capacities(), cli.get_double("constraint-ratio"), rng);
    const mapping::MappingProblem problem = core::make_problem(
        ctx.topo, ctx.calib.model, std::move(comm), std::move(constraints));

    core::GeoDistMapper geo;
    geo.set_collector(obs.collector());
    const Mapping current = geo.map(problem);
    const SiteId failed = busiest_site(current, problem.num_sites());

    // Healthy execution: calibrates the fault schedule to this app's
    // actual virtual duration.
    runtime::Runtime healthy_rt(ctx.calib.model, current);
    const Seconds healthy_makespan =
        healthy_rt.run([&](runtime::Comm& c) { (void)app->run(c, cfg); })
            .makespan;

    for (const double fraction : outage_fractions) {
      const Seconds t_out = fraction * healthy_makespan;
      // The brownout persists past the death: the remap-time snapshot
      // stays degraded, so both recovery policies have a real cost gain
      // to claw back (a brownout that expired exactly at t_out would make
      // the oracle's snapshot healthy and its "gain" vacuous).
      fault::FaultPlan plan(seed);
      plan.add_site_degradation(failed, 0.0, fault::kNoEnd, factor);
      plan.add_site_outage(failed, t_out);

      // The observed execution: the app rides through brownout, retry
      // storms and forced-through timeouts; every inter-site transfer
      // leaves a point on the cell's private timeline.
      obs::Collector cell_obs;
      runtime::Runtime rt(ctx.calib.model, current);
      rt.set_fault_plan(&plan);
      rt.set_collector(&cell_obs);
      const runtime::RunResult faulted =
          rt.run([&](runtime::Comm& c) { (void)app->run(c, cfg); });

      // Detection sees telemetry only; scoring sees the plan. Onset /
      // clear verdicts stream to the exported event log when one was
      // asked for (the cell's private collector is discarded).
      obs::DegradationDetector detector;
      if (obs.collector() != nullptr)
        detector.set_event_log(&obs.collector()->events());
      detector.scan(cell_obs.timeline());
      const std::vector<obs::DegradationEvent> events = detector.events();

      obs::DetectionScoreOptions score_options;
      for (const std::string& key : cell_obs.timeline().keys()) {
        const std::size_t brace = key.find('{');
        if (brace == std::string::npos ||
            key.compare(0, brace, "link.latency_ratio") != 0) {
          continue;
        }
        int src = -1, dst = -1;
        if (obs::parse_link_label(key.substr(brace + 1, key.size() - brace - 2),
                                  &src, &dst)) {
          score_options.observable_links.emplace_back(src, dst);
        }
      }
      const std::vector<obs::TruthWindow> truth =
          plan.truth_windows(problem.num_sites());
      const obs::DetectionScore score =
          obs::score_detections(events, truth, score_options);

      const core::RemapResult oracle =
          core::remap_on_outage(problem, current, plan, failed, t_out, options);

      bool detected = false;
      core::DetectionRemapResult det;
      try {
        det = core::remap_on_detection(problem, current, events, plan, options);
        detected = true;
      } catch (const InvalidArgument&) {
        // No actionable down event — the detector missed the outage; the
        // cell reports detection quality with no recovery fields.
      }

      if (!exported_cell && obs.collector() != nullptr) {
        // The exported timeline artifact carries the first cell's
        // telemetry with its detection overlay and score.
        exported_cell = true;
        fold_timeline(cell_obs.timeline(), obs.collector()->timeline());
        obs.collector()->detections().add_events(events);
        obs.collector()->detections().add_truth(truth);
        obs.collector()->detections().set_score(score);
      }

      w.begin_object();
      w.field("app", app->name());
      w.field("ranks", ranks);
      w.field("failed_site", failed);
      w.field("degradation_factor", factor);
      w.field("outage_fraction", fraction);
      w.field("outage_time", t_out);
      w.field("healthy_makespan", healthy_makespan);
      w.field("faulted_makespan", faulted.makespan);
      w.field("runtime_retries", faulted.total_retries);
      w.field("runtime_timeouts", faulted.total_timeouts);
      w.field("events", static_cast<std::int64_t>(events.size()));
      w.key("detection").begin_object();
      w.field("precision", score.precision);
      w.field("recall", score.recall);
      w.field("mean_detection_latency", score.mean_detection_latency);
      w.field("true_positive_events", score.true_positive_events);
      w.field("false_positive_events", score.false_positive_events);
      w.field("detected_windows", score.detected_windows);
      w.field("missed_windows", score.missed_windows);
      w.end_object();
      w.field("detected", detected);
      if (detected) {
        w.field("suspected_site", det.suspected_site);
        w.field("suspected_correct", det.suspected_site == failed);
        w.field("detection_time", det.detection_time);
        w.field("oracle_degraded_cost", oracle.degraded_cost);
        w.field("oracle_post_remap_cost", oracle.post_remap_cost);
        w.field("detection_post_remap_cost", det.remap.post_remap_cost);
        w.field("oracle_post_remap_makespan", oracle.post_remap_makespan);
        w.field("detection_post_remap_makespan",
                det.remap.post_remap_makespan);
        const double oracle_gain =
            oracle.degraded_cost - oracle.post_remap_cost;
        const double detection_gain =
            det.remap.degraded_cost - det.remap.post_remap_cost;
        w.field("oracle_gain", oracle_gain);
        w.field("detection_gain", detection_gain);
        w.field("oracle_recovery_fraction",
                oracle_gain > 0 ? detection_gain / oracle_gain : 1.0);
      }
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  w.done();
  std::cout << "\n";
  return 0;
}

int run_migrate_mode(const CliParser& cli, bench::ObsSink& obs) {
  const int ranks = static_cast<int>(cli.get_int("ranks"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const bench::Ec2Context ctx((ranks + 2) / 3);

  const double factor = 0.25;
  const std::vector<Seconds> outage_times = {5.0, 30.0};

  core::RemapOptions options;
  options.bytes_per_process = cli.get_double("state-mib") * kMiB;
  options.collector = obs.collector();

  int violations_total = 0;
  bool exported_cell = false;
  JsonWriter w(std::cout);
  w.begin_object();
  w.key("cells").begin_array();
  for (const apps::App* app : apps::all_apps()) {
    apps::AppConfig cfg = app->default_config(ranks);
    trace::CommMatrix comm = bench::profile_app(*app, cfg, ctx.calib.model);

    Rng rng(seed);
    ConstraintVector constraints = mapping::make_random_constraints(
        ranks, ctx.topo.capacities(), cli.get_double("constraint-ratio"), rng);
    const mapping::MappingProblem problem = core::make_problem(
        ctx.topo, ctx.calib.model, std::move(comm), std::move(constraints));

    core::GeoDistMapper geo;
    geo.set_collector(obs.collector());
    const Mapping current = geo.map(problem);
    const SiteId failed = busiest_site(current, problem.num_sites());

    for (const Seconds t_out : outage_times) {
      fault::FaultPlan plan(seed);
      plan.add_site_degradation(failed, 0.0, fault::kNoEnd, factor);
      plan.add_site_outage(failed, t_out);

      const core::RemapResult r =
          core::remap_on_outage(problem, current, plan, failed, t_out, options);

      migrate::MigrationOptions mopts;
      mopts.bytes_per_process = options.bytes_per_process;
      // The timeline artifact carries the first cell's migration lanes;
      // the collector never changes the (deterministic) report.
      mopts.collector = exported_cell ? nullptr : obs.collector();
      exported_cell = true;
      const migrate::MigrationReport report = migrate::execute_migration(
          problem, current, r.mapping, plan, t_out, mopts);

      fault::MigrationInvariantOptions inv;
      inv.planned_bytes_per_process = mopts.bytes_per_process;
      inv.chunk_bytes = mopts.chunk_bytes;
      inv.max_retries = mopts.retry.max_retries;
      inv.max_copy_attempts = mopts.max_copy_attempts + mopts.max_replans +
                              mopts.max_emergency_attempts;
      inv.horizon = report.finish_time;
      const std::vector<fault::InvariantViolation> violations =
          fault::check_migration_invariants(report.events, current,
                                            problem.capacities, plan, inv);
      for (const fault::InvariantViolation& v : violations) {
        std::cerr << "INVARIANT VIOLATION (" << app->name() << ", t_out "
                  << t_out << "): t=" << v.t << " " << v.message << "\n";
      }
      violations_total += static_cast<int>(violations.size());

      w.begin_object();
      w.field("app", app->name());
      w.field("ranks", ranks);
      w.field("failed_site", failed);
      w.field("outage_time", t_out);
      w.field("degradation_factor", factor);
      w.field("processes_planned", report.processes_planned);
      w.field("processes_committed", report.processes_committed);
      w.field("processes_rolled_back", report.processes_rolled_back);
      w.field("processes_abandoned", report.processes_abandoned);
      w.field("rollbacks", report.rollbacks);
      w.field("replans", report.replans);
      w.field("chunk_retries", report.chunk_retries);
      w.field("chunk_timeouts", report.chunk_timeouts);
      w.field("bytes_planned", report.bytes_planned);
      w.field("bytes_sent", report.bytes_sent);
      w.field("migration_seconds", report.migration_seconds);
      w.field("app_makespan", report.app_makespan);
      w.field("app_blocked_seconds", report.app_blocked_seconds);
      w.field("max_downtime", report.max_downtime);
      w.field("total_downtime", report.total_downtime);
      w.field("complete", report.complete);
      w.field("violations", static_cast<std::int64_t>(violations.size()));
      w.end_object();
    }
  }
  w.end_array();
  w.field("total_violations", violations_total);
  w.end_object();
  w.done();
  std::cout << "\n";
  return violations_total == 0 ? 0 : 1;
}

// One chaos case's journal pushed through the control-plane WAL and read
// back: how long the fsync-disciplined append takes on a real protocol
// journal, how long replay takes, and whether every record survives the
// encode → CRC → decode round trip.
struct WalArchive {
  std::int64_t records = 0;
  double append_ms = 0;
  double replay_ms = 0;
  bool roundtrip_ok = false;
};

recover::WalRecordType mig_type(fault::MigrationEventKind kind) {
  using T = recover::WalRecordType;
  switch (kind) {
    case fault::MigrationEventKind::kReserve: return T::kMigReserve;
    case fault::MigrationEventKind::kRelease: return T::kMigRelease;
    case fault::MigrationEventKind::kChunk: return T::kMigChunk;
    case fault::MigrationEventKind::kCommit: return T::kMigCommit;
    case fault::MigrationEventKind::kRollback: return T::kMigRollback;
    case fault::MigrationEventKind::kReplan: return T::kMigReplan;
  }
  return T::kMigReserve;
}

WalArchive archive_case_wal(const std::string& dir,
                            const migrate::SoakCase& c) {
  WalArchive a;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  Timer append_timer;
  {
    recover::Wal wal(dir);
    recover::RunBeginRecord run;
    run.seed = c.seed;
    run.tenants = 1;
    run.sites = 0;
    run.policy = "chaos";
    wal.append(recover::WalRecordType::kRunBegin, 0,
               recover::encode_run_begin(run));
    recover::DetectDecisionRecord d;
    d.detected = c.detected;
    d.suspected_correct = c.suspected_correct;
    d.suspect = c.primary_site;
    d.failed_site = c.primary_site;
    d.outage_time = c.outage_time;
    d.detect_time = c.remap_time;
    wal.append(recover::WalRecordType::kDetectDecision, c.remap_time,
               recover::encode_detect_decision(d));
    Seconds last = c.remap_time;
    for (const fault::MigrationEvent& e : c.report.events) {
      recover::MigRecord m;
      m.tenant = 0;
      m.event = e;
      wal.append(mig_type(e.kind), e.t, recover::encode_mig(m));
      last = std::max(last, e.t);
    }
    wal.append(recover::WalRecordType::kRunEnd, last, "{}");
    wal.sync();
    a.records = static_cast<std::int64_t>(wal.appended());
  }
  a.append_ms = append_timer.elapsed_ms();

  Timer replay_timer;
  bool decoded = true;
  std::size_t migs = 0;
  recover::WalRecovery rec;
  try {
    rec = recover::read_wal(dir);
    for (const recover::WalRecord& r : rec.records) {
      switch (r.type) {
        case recover::WalRecordType::kRunBegin:
          recover::decode_run_begin(r.payload);
          break;
        case recover::WalRecordType::kDetectDecision:
          recover::decode_detect_decision(r.payload);
          break;
        case recover::WalRecordType::kRunEnd:
          break;
        default:
          recover::decode_mig(r.type, r.payload);
          migs += 1;
          break;
      }
    }
  } catch (const recover::WalCorrupt&) {
    decoded = false;
  }
  a.replay_ms = replay_timer.elapsed_ms();
  a.roundtrip_ok = decoded && rec.dropped_torn == 0 &&
                   rec.records.size() == static_cast<std::size_t>(a.records) &&
                   migs == c.report.events.size();
  return a;
}

int run_chaos_mode(const CliParser& cli, bench::ObsSink& obs) {
  const int num_seeds = static_cast<int>(cli.get_int("chaos"));
  migrate::SoakOptions opts;
  opts.ranks = static_cast<int>(cli.get_int("soak-ranks"));
  opts.app_rounds = static_cast<int>(cli.get_int("soak-rounds"));
  opts.collector = obs.collector();

  // Per-seed loop (not one run_chaos_soak call) so a live obs-dir
  // checkpoints after every case — incidents.json and events.jsonl grow
  // case by case under `obsctl watch`.
  migrate::SoakReport report;
  const std::string wal_root = cli.get_string("wal-dir");
  std::vector<WalArchive> archives;
  const auto base = static_cast<std::uint64_t>(cli.get_int("seed"));
  for (int i = 0; i < num_seeds; ++i) {
    const std::vector<std::uint64_t> one = {
        base + static_cast<std::uint64_t>(i)};
    const migrate::SoakReport step = migrate::run_chaos_soak(one, opts);
    if (!wal_root.empty()) {
      archives.push_back(archive_case_wal(
          wal_root + "/seed-" + std::to_string(one.front()),
          step.cases.front()));
    }
    report.cases.push_back(step.cases.front());
    report.total_violations += step.total_violations;
    report.detected_cases += step.detected_cases;
    report.fallback_cases += step.fallback_cases;
    report.total_committed += step.total_committed;
    report.total_rollbacks += step.total_rollbacks;
    report.total_replans += step.total_replans;
    report.total_abandoned += step.total_abandoned;
    report.attribution.merge(step.attribution);
    obs.checkpoint();
  }

  JsonWriter w(std::cout);
  w.begin_object();
  w.field("seeds", num_seeds);
  w.field("ranks", opts.ranks);
  w.key("cases").begin_array();
  for (std::size_t i = 0; i < report.cases.size(); ++i) {
    const migrate::SoakCase& c = report.cases[i];
    w.begin_object();
    w.field("seed", static_cast<std::int64_t>(c.seed));
    w.field("primary_site", c.primary_site);
    w.field("outage_time", c.outage_time);
    w.field("detected", c.detected);
    w.field("suspected_correct", c.suspected_correct);
    w.field("remap_time", c.remap_time);
    w.field("committed", c.report.processes_committed);
    w.field("rollbacks", c.report.rollbacks);
    w.field("replans", c.report.replans);
    w.field("abandoned", c.report.processes_abandoned);
    w.field("violations", static_cast<std::int64_t>(c.violations.size()));
    if (i < archives.size()) {
      const WalArchive& a = archives[i];
      w.field("wal_records", a.records);
      w.field("wal_append_ms", bench::masked_ms(a.append_ms));
      w.field("wal_replay_ms", bench::masked_ms(a.replay_ms));
      w.field("wal_roundtrip_ok", a.roundtrip_ok);
    }
    w.end_object();
    for (const fault::InvariantViolation& v : c.violations) {
      std::cerr << "INVARIANT VIOLATION (seed " << c.seed << "): t=" << v.t
                << " " << v.message << "\n";
    }
  }
  w.end_array();
  w.field("detected_cases", report.detected_cases);
  w.field("fallback_cases", report.fallback_cases);
  w.field("total_committed", report.total_committed);
  w.field("total_rollbacks", report.total_rollbacks);
  w.field("total_replans", report.total_replans);
  w.field("total_abandoned", report.total_abandoned);
  w.field("total_violations", report.total_violations);
  if (obs.collector() != nullptr) {
    // Blame quality vs the seeded truth — only measured when the
    // incident engine ran (it needs the event stream).
    w.key("attribution").begin_object();
    w.field("incidents",
            static_cast<std::int64_t>(report.attribution.incidents));
    w.field("precision", report.attribution.precision());
    w.field("recall", report.attribution.recall());
    w.field("mean_onset_error", report.attribution.mean_onset_error());
    w.end_object();
  }
  std::int64_t wal_failures = 0;
  if (!archives.empty()) {
    std::int64_t records = 0;
    double append_ms = 0;
    double replay_ms = 0;
    for (const WalArchive& a : archives) {
      records += a.records;
      append_ms += a.append_ms;
      replay_ms += a.replay_ms;
      if (!a.roundtrip_ok) wal_failures += 1;
    }
    w.key("wal").begin_object();
    w.field("dir", wal_root);
    w.field("records", records);
    w.field("append_ms", bench::masked_ms(append_ms));
    w.field("replay_ms", bench::masked_ms(replay_ms));
    w.field("roundtrip_failures", wal_failures);
    w.end_object();
  }
  // Machine-checked summary: CI asserts these, not just parseability.
  w.field("seeds_run", static_cast<std::int64_t>(report.cases.size()));
  w.field("invariants_checked", static_cast<std::int64_t>(report.cases.size()));
  w.field("violations", report.total_violations);
  const bool ok = report.ok() && wal_failures == 0;
  w.field("ok", ok);
  w.end_object();
  w.done();
  std::cout << "\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Fault recovery: outage/degradation sweep with remapping");
  cli.add_int("ranks", 64, "number of processes");
  cli.add_double("constraint-ratio", 0.2, "pinned process fraction");
  cli.add_int("seed", 2017, "random seed");
  cli.add_double("state-mib", 64.0, "migrated state per process (MiB)");
  cli.add_bool("detector", false,
               "closed-loop mode: execute under the fault plan, detect "
               "degradation from telemetry, and compare detection-driven "
               "remapping against the oracle");
  cli.add_bool("migrate", false,
               "carry out each oracle remap with the migration executor "
               "(deterministic; certifies every protocol journal and "
               "exits 1 on any invariant violation)");
  cli.add_int("chaos", 0,
              "run the full detect/remap/migrate chaos soak over this "
              "many seeds and exit 1 on any invariant violation");
  cli.add_int("soak-ranks", 10, "processes per chaos-soak case");
  cli.add_int("soak-rounds", 16, "app rounds per chaos-soak case");
  cli.add_string("wal-dir", "",
                 "(chaos mode) archive each case's journal through the "
                 "control-plane WAL under this directory and report the "
                 "append/replay timings");
  bench::ObsSink::add_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  bench::ObsSink obs = bench::ObsSink::parse(cli);
  if (cli.get_bool("detector")) return run_detector_mode(cli, obs);
  if (cli.get_bool("migrate")) return run_migrate_mode(cli, obs);
  if (cli.get_int("chaos") > 0) return run_chaos_mode(cli, obs);

  const int ranks = static_cast<int>(cli.get_int("ranks"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  // Headroom: survivors of a single-site outage must still fit `ranks`.
  const bench::Ec2Context ctx((ranks + 2) / 3);

  const std::vector<double> factors = {0.5, 0.25, 0.1};
  const std::vector<Seconds> outage_times = {5.0, 30.0, 120.0};

  core::RemapOptions options;
  options.bytes_per_process = cli.get_double("state-mib") * kMiB;
  options.collector = obs.collector();

  JsonWriter w(std::cout);
  w.begin_array();
  for (const apps::App* app : apps::all_apps()) {
    apps::AppConfig cfg = app->default_config(ranks);
    trace::CommMatrix comm = bench::profile_app(*app, cfg, ctx.calib.model);

    Rng rng(seed);
    ConstraintVector constraints = mapping::make_random_constraints(
        ranks, ctx.topo.capacities(), cli.get_double("constraint-ratio"), rng);
    const mapping::MappingProblem problem = core::make_problem(
        ctx.topo, ctx.calib.model, std::move(comm), std::move(constraints));

    core::GeoDistMapper geo;
    geo.set_collector(obs.collector());
    const Mapping current = geo.map(problem);
    const SiteId failed = busiest_site(current, problem.num_sites());

    for (const double factor : factors) {
      for (const Seconds t_out : outage_times) {
        fault::FaultPlan plan(seed);
        plan.add_site_degradation(failed, 0.0, fault::kNoEnd, factor);
        if (t_out > 60.0) {  // the brownout deepens before the failure
          plan.add_site_degradation(failed, 60.0, fault::kNoEnd, factor);
        }
        plan.add_site_outage(failed, t_out);

        const core::RemapResult r =
            core::remap_on_outage(problem, current, plan, failed, t_out,
                                  options);

        w.begin_object();
        w.field("app", app->name());
        w.field("ranks", ranks);
        w.field("failed_site", failed);
        w.field("outage_time", t_out);
        w.field("degradation_factor", factor);
        w.field("pre_fault_cost", r.pre_fault_cost);
        w.field("degraded_cost", r.degraded_cost);
        w.field("post_remap_cost", r.post_remap_cost);
        w.field("pre_fault_makespan", r.pre_fault_makespan);
        w.field("post_remap_makespan", r.post_remap_makespan);
        w.field("migration_seconds", r.migration_seconds);
        w.field("bytes_moved", r.bytes_moved);
        w.field("processes_moved", r.processes_moved);
        w.field("recovered_percent",
                r.degraded_cost > 0
                    ? 100.0 * (r.degraded_cost - r.post_remap_cost) /
                          r.degraded_cost
                    : 0.0);
        w.end_object();
      }
    }
  }
  w.end_array();
  w.done();
  std::cout << "\n";
  return 0;
}

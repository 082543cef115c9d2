// storm_recover: the control plane end to end.
//
// Per case seed (a fixed list derived from the run seed), one pass runs
//   1. recover::run_recoverable_case uninterrupted, WAL with fsync off
//                                           (primary_s, "storm_case_s");
//   2. the same seed again in a fresh WAL directory, killed by
//      CrashInjector at the middle hit of wal.append.mig_commit.after;
//   3. the resumed generation with a fresh collector (followup_s,
//      "recover_s"), whose digest must equal step 1's.
// The traced run adds, per case, the same case without a WAL
// (tenancy::run_multitenant_soak_case, for recover.wal_overhead_s), the
// case recomposed stage by stage from the public calls tenancy/soak.cpp
// makes, and the map-pipeline layers timed over the case's 1000 tenants.

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>

#include "common/parallel.h"
#include "core/geodist_mapper.h"
#include "core/grouping.h"
#include "core/remap.h"
#include "fault/attribution.h"
#include "fault/chaos.h"
#include "fault/crash.h"
#include "fault/degraded_network.h"
#include "fault/fault_plan.h"
#include "mapping/cost.h"
#include "mapping/problem.h"
#include "net/calibration.h"
#include "net/cloud.h"
#include "obs/collector.h"
#include "obs/detector.h"
#include "obs/incident.h"
#include "obs/timeseries.h"
#include "recover/driver.h"
#include "recover/recovery.h"
#include "recover/wal.h"
#include "sim/netsim.h"
#include "tenancy/scheduler.h"
#include "tenancy/soak.h"
#include "tenancy/substrate.h"
#include "trace/comm_matrix.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace geomap;
namespace fs = std::filesystem;

constexpr std::size_t kCaseSeeds = 6;
constexpr int kSetupRepeats = 3;
/// Candidate case seeds examined on every run, so set-up does the same
/// work whatever they hold. The dead region of about half of all seeds
/// hosts few or no tenants, and the rest strand 220 to 280; the run
/// keeps the kCaseSeeds candidates that strand the most tenants, so its
/// figures do not depend mostly on which seeds it drew.
constexpr std::uint64_t kCandidates = 24;
constexpr const char* kCrashPoint = "wal.append.mig_commit.after";

recover::RecoverableSoakOptions storm_options(const std::string& wal_dir,
                                              obs::Collector* collector) {
  recover::RecoverableSoakOptions o;
  o.soak.substrate.num_sites = 6;
  o.soak.substrate.num_tenants = 1000;
  o.soak.collector = collector;
  o.wal_dir = wal_dir;
  // Every sync() still writes and flushes its segment, and is counted in
  // recover.syncs; only the fsync(2) is skipped. On a shared host its
  // latency is the disk's, not the program's: it made up about 60 % of
  // a case's wall time and varied 2x between cases of one run. The
  // in-process crash model does not depend on it (see WalOptions).
  o.wal.fsync = false;
  return o;  // the snapshot cadence stays at its default
}

std::vector<sim::TenantFlow> flows_of(const tenancy::Substrate& substrate) {
  std::vector<sim::TenantFlow> flows;
  flows.reserve(substrate.tenants.size());
  for (const tenancy::Tenant& t : substrate.tenants)
    flows.push_back({&t.problem.comm, &t.mapping});
  return flows;
}

/// The healthy shared replay that sets a case's virtual horizon.
Seconds healthy_makespan(const tenancy::Substrate& substrate,
                         const tenancy::MultiTenantSoakOptions& options) {
  const fault::FaultPlan no_faults;
  const fault::DegradedNetworkModel healthy(
      substrate.tenants.front().problem.network, no_faults);
  sim::MultiTenantReplayOptions calibrate;
  calibrate.rounds = options.app_rounds;
  return sim::replay_multitenant(flows_of(substrate), healthy, calibrate)
      .makespan;
}

/// The chaos plan run_multitenant_soak_case draws for a case.
fault::ChaosPlan draw_chaos(std::uint64_t seed,
                            const tenancy::MultiTenantSoakOptions& options,
                            const tenancy::Substrate& substrate,
                            Seconds horizon) {
  fault::ChaosOptions chaos = options.chaos;
  chaos.num_sites = substrate.num_sites();
  chaos.horizon = horizon;
  if (chaos.migration_window_length <= 0) {
    chaos.migration_window_length = 1.5 * horizon;
    if (chaos.migration_window_faults == 0) chaos.migration_window_faults = 2;
  }
  return fault::make_chaos_plan(seed, chaos);
}

/// Tenants with at least one rank on the case's primary outage site:
/// the remap requests its storm will hold.
int stranded_tenants(std::uint64_t seed,
                     const tenancy::MultiTenantSoakOptions& options) {
  const tenancy::Substrate substrate =
      tenancy::make_substrate(seed, options.substrate);
  const SiteId failed =
      draw_chaos(seed, options, substrate,
                 healthy_makespan(substrate, options))
          .primary_site;
  int stranded = 0;
  for (const tenancy::Tenant& t : substrate.tenants) {
    if (std::find(t.mapping.begin(), t.mapping.end(), failed) !=
        t.mapping.end())
      stranded += 1;
  }
  return stranded;
}

/// The run's case seeds: the kCaseSeeds largest storms among the
/// candidates seed*1000, ..., seed*1000 + kCandidates - 1, in seed order.
std::vector<std::uint64_t> pick_case_seeds(
    std::uint64_t seed, const tenancy::MultiTenantSoakOptions& options) {
  std::vector<std::pair<int, std::uint64_t>> candidates;
  for (std::uint64_t i = 0; i < kCandidates; ++i) {
    const std::uint64_t c = seed * 1000 + i;
    candidates.push_back({-stranded_tenants(c, options), c});
  }
  std::sort(candidates.begin(), candidates.end());
  std::vector<std::uint64_t> seeds;
  for (std::size_t k = 0; k < kCaseSeeds; ++k)
    seeds.push_back(candidates[k].second);
  std::sort(seeds.begin(), seeds.end());
  return seeds;
}

/// Mean over the cases of each case's median: `samples` holds one time
/// per case per pass, pass-major. Unlike the median of all samples, it
/// does not jump from one case's time to another's between runs.
double mean_case_median(const std::vector<double>& samples,
                        std::size_t cases) {
  double total = 0;
  for (std::size_t k = 0; k < cases; ++k) {
    std::vector<double> one;
    for (std::size_t i = k; i < samples.size(); i += cases)
      one.push_back(samples[i]);
    total += median(one);
  }
  return total / static_cast<double>(cases);
}

void wipe(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

double dir_bytes(const std::string& dir) {
  double total = 0;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    if (e.is_regular_file()) total += static_cast<double>(e.file_size());
  }
  return total;
}

/// WAL activity since the injector's last reset_counts(), read from the
/// crash-point hit counters every append/sync/snapshot passes.
struct WalCounts {
  std::uint64_t appends = 0;
  std::uint64_t syncs = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t commits = 0;
};

WalCounts wal_counts() {
  const fault::CrashInjector& inj = fault::CrashInjector::instance();
  WalCounts c;
  for (const std::string& p : inj.points_seen()) {
    if (p.starts_with("wal.append.") && p.ends_with(".after"))
      c.appends += inj.hits(p);
  }
  c.syncs = inj.hits("wal.sync.after");
  c.snapshots = inj.hits("wal.compact.after");
  c.commits = inj.hits(kCrashPoint);
  return c;
}

/// Points of the link series the degradation detector scans.
double link_points(const obs::TimeSeriesRegistry& timeline) {
  double points = 0;
  for (const std::string& key : timeline.keys()) {
    if (key.starts_with("link."))
      points += static_cast<double>(timeline.find(key)->points().size());
  }
  return points;
}

/// tenancy::run_multitenant_soak_case recomposed from the public calls
/// it makes, one span per stage, with the same collector setup.
/// `detector_points` receives the number of telemetry points scanned.
tenancy::MultiTenantSoakCase composed_case(
    std::uint64_t seed, const tenancy::MultiTenantSoakOptions& options,
    Tracer& tr, double& detector_points) {
  Tracer::Scope root(&tr, "soak_case");
  tenancy::MultiTenantSoakCase result;
  result.seed = seed;
  obs::EventLog* elog = &options.collector->events();
  const std::uint64_t seq0 = elog->total();

  tenancy::Substrate substrate;
  {
    Tracer::Scope span(&tr, "tenancy.substrate_s");
    substrate = tenancy::make_substrate(seed, options.substrate);
  }
  result.tenants = substrate.num_tenants();
  elog->emit(0, obs::EventSeverity::kInfo, "soak", "case_start",
             {obs::field("seed", seed), obs::field("tenants", result.tenants)});
  const net::NetworkModel& network = substrate.tenants.front().problem.network;

  Seconds horizon = 0;
  {
    Tracer::Scope span(&tr, "sim.mt_replay_healthy_s");
    horizon = healthy_makespan(substrate, options);
  }
  fault::ChaosPlan chaos_plan;
  {
    Tracer::Scope span(&tr, "fault.chaos_plan_s");
    chaos_plan = draw_chaos(seed, options, substrate, horizon);
  }
  result.primary_site = chaos_plan.primary_site;
  result.outage_time = chaos_plan.primary_outage_time;
  const fault::DegradedNetworkModel degraded(network, chaos_plan.plan);

  obs::Collector telemetry;
  {
    Tracer::Scope span(&tr, "sim.mt_replay_observe_s");
    sim::MultiTenantReplayOptions observe;
    observe.rounds = options.app_rounds;
    observe.collector = &telemetry;
    sim::replay_multitenant(flows_of(substrate), degraded, observe);
  }

  detector_points = link_points(telemetry.timeline());
  core::SuspectVote vote;
  {
    Tracer::Scope span(&tr, "obs.detect_s");
    obs::DegradationDetector detector;
    detector.set_event_log(elog);
    detector.scan(telemetry.timeline());
    vote = core::vote_suspected_site(detector.events());
  }
  result.detected = vote.site != -1;
  result.suspected_correct = vote.site == chaos_plan.primary_site;
  const bool usable = result.detected && result.suspected_correct;
  result.detect_time =
      usable ? vote.detection_time : chaos_plan.primary_outage_time;
  const SiteId failed = chaos_plan.primary_site;
  elog->emit(result.detect_time,
             result.suspected_correct ? obs::EventSeverity::kInfo
                                      : obs::EventSeverity::kWarn,
             "soak", "detect",
             {obs::field("detected", result.detected),
              obs::field("suspected_correct", result.suspected_correct),
              obs::field("suspect", vote.site),
              obs::field("failed_site", failed),
              obs::field("outage_time", chaos_plan.primary_outage_time)});

  std::vector<tenancy::RemapRequest> requests;
  for (const tenancy::Tenant& t : substrate.tenants) {
    int stranded = 0;
    for (const SiteId s : t.mapping) {
      if (s == failed) stranded += 1;
    }
    if (stranded == 0) continue;
    tenancy::RemapRequest r;
    r.tenant = t.id;
    r.request_time = result.detect_time;
    r.severity = static_cast<double>(stranded) /
                 static_cast<double>(t.mapping.size());
    requests.push_back(r);
  }
  result.requests = static_cast<int>(requests.size());

  tenancy::SchedulerOptions sched = options.scheduler;
  sched.migrate.bytes_per_process = options.bytes_per_process;
  sched.migrate.chunk_bytes = options.chunk_bytes;
  sched.remap.bytes_per_process = options.bytes_per_process;
  if (sched.collector == nullptr) sched.collector = options.collector;

  std::vector<Mapping> initial;
  initial.reserve(substrate.tenants.size());
  for (const tenancy::Tenant& t : substrate.tenants)
    initial.push_back(t.mapping);

  {
    Tracer::Scope span(&tr, "tenancy.storm_s");
    result.storm = tenancy::run_remap_storm(substrate, chaos_plan.plan, failed,
                                            requests, sched);
  }

  {
    Tracer::Scope span(&tr, "fault.invariants_s");
    fault::MigrationInvariantOptions inv;
    inv.planned_bytes_per_process = options.bytes_per_process;
    inv.chunk_bytes = options.chunk_bytes;
    inv.max_retries = sched.migrate.retry.max_retries;
    inv.max_copy_attempts = sched.migrate.max_copy_attempts +
                            sched.migrate.max_replans +
                            sched.migrate.max_emergency_attempts;
    std::vector<fault::TenantJournal> journals(
        static_cast<std::size_t>(substrate.num_tenants()));
    for (int k = 0; k < substrate.num_tenants(); ++k) {
      journals[static_cast<std::size_t>(k)].initial_mapping =
          initial[static_cast<std::size_t>(k)];
      journals[static_cast<std::size_t>(k)].options = inv;
    }
    for (const tenancy::TenantRecovery& rec : result.storm.recoveries) {
      if (!rec.granted) continue;
      journals[static_cast<std::size_t>(rec.tenant)].events = rec.report.events;
      fault::MigrationInvariantOptions tenant_inv = inv;
      tenant_inv.horizon = rec.report.finish_time;
      const std::vector<fault::InvariantViolation> found =
          fault::check_migration_invariants(
              rec.report.events, initial[static_cast<std::size_t>(rec.tenant)],
              substrate.site_capacities, chaos_plan.plan, tenant_inv);
      for (const fault::InvariantViolation& v : found) {
        result.violations.push_back(
            {v.t, "tenant " + std::to_string(rec.tenant) + ": " + v.message});
      }
      result.invariants_checked += 1;
    }
    const std::vector<fault::InvariantViolation> cross =
        fault::check_cross_tenant_invariants(
            journals, substrate.site_capacities, chaos_plan.plan);
    for (const fault::InvariantViolation& v : cross) {
      result.violations.push_back({v.t, "cross-tenant: " + v.message});
    }
    result.invariants_checked += 1;
  }

  Seconds recovery_end = result.detect_time;
  for (const tenancy::TenantRecovery& rec : result.storm.recoveries) {
    if (rec.granted) recovery_end = std::max(recovery_end, rec.finish_time);
  }
  sim::MultiTenantReplayResult shared;
  {
    Tracer::Scope span(&tr, "sim.mt_replay_post_s");
    sim::MultiTenantReplayOptions post;
    post.start_time = recovery_end;
    shared = sim::replay_multitenant(flows_of(substrate), degraded, post);
  }
  std::vector<double> stretch;
  stretch.reserve(substrate.tenants.size());
  for (int k = 0; k < substrate.num_tenants(); ++k) {
    const tenancy::Tenant& t = substrate.tenants[static_cast<std::size_t>(k)];
    const Seconds solo = t.solo_makespan > 0 ? t.solo_makespan : 1.0;
    stretch.push_back(shared.tenants[static_cast<std::size_t>(k)].makespan /
                      solo);
  }
  result.fairness = tenancy::fairness_from_stretch(stretch);

  {
    Tracer::Scope span(&tr, "obs.incidents_s");
    const bool clean = result.violations.empty();
    elog->emit(recovery_end,
               clean ? obs::EventSeverity::kInfo : obs::EventSeverity::kError,
               "soak", "case_done",
               {obs::field("seed", seed),
                obs::field("requests", result.requests),
                obs::field("gave_up", result.storm.gave_up),
                obs::field("requeues", result.storm.requeues),
                obs::field("storm_drain", result.storm.storm_drain_seconds),
                obs::field("violations", result.violations.size()),
                obs::field("jain_index", result.fairness.jain_index),
                obs::field("mean_stretch", result.fairness.mean_stretch),
                obs::field("p99_stretch", result.fairness.p99_stretch)});
    result.incidents = obs::build_incidents(elog->events_since(seq0));
    fault::AttributionScoreOptions sopt;
    std::vector<bool> used(static_cast<std::size_t>(substrate.num_sites()),
                           false);
    for (const Mapping& m : initial) {
      for (const SiteId s : m) {
        if (s >= 0) used[static_cast<std::size_t>(s)] = true;
      }
    }
    for (SiteId a = 0; a < substrate.num_sites(); ++a) {
      for (SiteId b = a + 1; b < substrate.num_sites(); ++b) {
        if (used[static_cast<std::size_t>(a)] &&
            used[static_cast<std::size_t>(b)])
          sopt.observable_links.push_back({a, b});
      }
    }
    result.attribution = fault::score_attribution(
        result.incidents, chaos_plan.plan.truth_windows(substrate.num_sites()),
        sopt);
    result.attribution_scored = true;
    options.collector->incidents().add(result.incidents);
    options.collector->incidents().add_totals(result.attribution);
  }
  return result;
}

/// Sums over one case's tenants of the map-pipeline layers, timed around
/// the same public calls the map workloads time, on the opposite shape:
/// a thousand tiny problems instead of one large one.
struct TenantProbe {
  double nnz = 0;
  double csr_bytes = 0;
  double orders = 0;
  double map_cpu_s = 0;
  double map_wall_s = 0;
};

TenantProbe probe_tenants(std::uint64_t seed,
                          const tenancy::SubstrateOptions& options,
                          Result& res, Tracer& tr) {
  const tenancy::Substrate sub = tenancy::make_substrate(seed, options);
  TenantProbe probe;
  std::vector<std::vector<trace::CommEdge>> edges;
  edges.reserve(sub.tenants.size());
  for (const tenancy::Tenant& t : sub.tenants) {
    edges.push_back(t.problem.comm.edges());
    probe.nnz += static_cast<double>(t.problem.comm.nnz());
    probe.csr_bytes += static_cast<double>(t.problem.comm.memory_bytes());
  }
  {
    Tracer::Scope span(&tr, "trace.csr_build_s");
    for (std::size_t k = 0; k < sub.tenants.size(); ++k) {
      trace::CommMatrix::Builder builder(
          sub.tenants[k].problem.num_processes());
      for (const trace::CommEdge& e : edges[k])
        builder.add_message(e.src, e.dst, e.volume, e.count);
      builder.build();
    }
  }
  {
    Tracer::Scope span(&tr, "net.calibrate_s");
    const net::CloudTopology topo(net::synthetic_profile(
        sub.num_sites(), sub.site_capacities.front(), seed));
    net::Calibrator().calibrate(topo);
  }
  const std::vector<net::GeoCoordinate>& coords =
      sub.tenants.front().problem.site_coords;
  const int kappa = core::GeoDistOptions{}.kappa;
  core::Grouping grouping;
  {
    Tracer::Scope span(&tr, "core.group_s");
    for (std::size_t k = 0; k < sub.tenants.size(); ++k)
      grouping = core::group_sites(coords, kappa);
  }
  bool same = true;
  {
    Tracer::Scope span(&tr, "core.map_call_s");
    const double wall0 = now_s();
    const double cpu0 = cpu_seconds();
    for (const tenancy::Tenant& t : sub.tenants) {
      core::GeoDistMapper mapper;
      same = same && mapper.map(t.problem) == t.mapping;
      probe.orders += mapper.last_orders_evaluated();
    }
    probe.map_cpu_s = cpu_seconds() - cpu0;
    probe.map_wall_s = now_s() - wall0;
  }
  res.op(same, "re-mapping a tenant differs from its substrate placement");
  std::vector<GroupId> order(static_cast<std::size_t>(grouping.num_groups));
  for (std::size_t g = 0; g < order.size(); ++g)
    order[g] = static_cast<GroupId>(g);
  {
    Tracer::Scope span(&tr, "core.fill_s");
    for (const tenancy::Tenant& t : sub.tenants)
      core::fill_for_order(t.problem, grouping, order,
                           core::GeoDistOptions::FillEngine::kHeap);
  }
  {
    Tracer::Scope span(&tr, "mapping.total_cost_s");
    for (const tenancy::Tenant& t : sub.tenants)
      mapping::CostEvaluator(t.problem).total_cost(t.mapping);
  }
  {
    Tracer::Scope span(&tr, "sim.replay_s");
    for (const tenancy::Tenant& t : sub.tenants)
      sim::replay_with_contention(t.problem.comm, t.problem.network, t.mapping);
  }
  return probe;
}

}  // namespace

Result run_storm_workload(const RunOptions& options, Tracer& tr) {
  Result res;
  const recover::RecoverableSoakOptions shape = storm_options("", nullptr);

  // The storm runs on one worker, so all its times are rescaled; the
  // reference kernel runs right after each set-up and each case.
  Reference reference;

  // Set-up: choosing the case seeds builds each candidate's substrate
  // and chaos plan.
  std::vector<double> setup, setup_ref;
  std::vector<std::uint64_t> seeds;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double t0 = now_s();
    seeds = pick_case_seeds(options.seed, shape.soak);
    setup.push_back(now_s() - t0);
    setup_ref.push_back(reference.time(res));
  }

  fault::CrashInjector& inj = fault::CrashInjector::instance();
  const std::string warm_dir = options.work_dir + "/warm";
  {
    obs::Collector collector;
    recover::run_recoverable_case(seeds.front(),
                                  storm_options(warm_dir, &collector));
    wipe(warm_dir);
  }

  std::vector<double> case_s, recover_s, case_ref, soak_s, drain, p99,
      stretch;
  double requests = 0, requeues = 0, gave_up = 0, granted = 0;
  double journal_events = 0, invariants_checked = 0, wal_bytes = 0;
  double records_replayed = 0, incidents = 0, detector_points = 0;
  WalCounts wal;
  std::vector<TenantProbe> probes;
  const double start = now_s();
  for (int pass = 0; pass == 0 || now_s() - start < options.seconds; ++pass) {
    for (const std::uint64_t cs : seeds) {
      const std::string tag = "seed " + std::to_string(cs) + ": ";
      const std::string full_dir = options.work_dir + "/full";
      const std::string crash_dir = options.work_dir + "/crash";
      wipe(full_dir);
      wipe(crash_dir);

      inj.reset_counts();
      recover::RecoverableCaseResult full;
      {
        obs::Collector collector;
        const double t0 = now_s();
        full = recover::run_recoverable_case(
            cs, storm_options(full_dir, &collector));
        case_s.push_back(now_s() - t0);
      }
      const WalCounts counts = wal_counts();
      const tenancy::MultiTenantSoakCase& sc = full.soak_case;
      res.op(sc.violations.empty(), tag + "invariant violations");
      res.op(full.recovery_violations.empty(), tag + "recovery violations");
      for (const tenancy::TenantRecovery& rec : sc.storm.recoveries)
        res.op(!rec.gave_up, tag + "tenant " + std::to_string(rec.tenant) +
                                 " gave up");
      if (pass == 0) {
        drain.push_back(sc.storm.storm_drain_seconds);
        p99.push_back(sc.fairness.p99_stretch);
        stretch.push_back(sc.fairness.mean_stretch);
        requests += sc.requests;
        requeues += sc.storm.requeues;
        gave_up += sc.storm.gave_up;
        for (const tenancy::TenantRecovery& rec : sc.storm.recoveries) {
          if (!rec.granted) continue;
          granted += 1;
          journal_events += static_cast<double>(rec.report.events.size());
        }
        invariants_checked += sc.invariants_checked;
        wal.appends += counts.appends;
        wal.syncs += counts.syncs;
        wal.snapshots += counts.snapshots;
        wal_bytes += dir_bytes(full_dir);
      }

      {
        obs::Collector dead;
        inj.arm(kCrashPoint, static_cast<int>(counts.commits / 2));
        bool fired = false;
        try {
          recover::run_recoverable_case(cs, storm_options(crash_dir, &dead));
        } catch (const fault::CrashTriggered&) {
          fired = true;
        }
        inj.disarm();
        res.op(fired, tag + "crash point " + kCrashPoint + " never fired");
      }
      if (tr.enabled()) {
        Tracer::Scope span(&tr, "recover.read_wal_s");
        const recover::WalRecovery log = recover::read_wal(crash_dir);
        recover::replay_wal(log.records);
        if (pass == 0)
          records_replayed += static_cast<double>(log.records.size());
      }
      {
        obs::Collector fresh;
        const double t0 = now_s();
        const recover::RecoverableCaseResult resumed =
            recover::run_recoverable_case(cs, storm_options(crash_dir, &fresh));
        recover_s.push_back(now_s() - t0);
        res.op(resumed.resumed && resumed.digest == full.digest,
               tag + "resumed digest differs from the uninterrupted run");
        res.op(resumed.recovery_violations.empty(),
               tag + "recovery violations after resume");
      }
      wipe(full_dir);
      wipe(crash_dir);
      case_ref.push_back(reference.time(res));

      if (!tr.enabled()) continue;
      {
        obs::Collector collector;
        tenancy::MultiTenantSoakOptions soak = shape.soak;
        soak.collector = &collector;
        const double t0 = now_s();
        tenancy::run_multitenant_soak_case(cs, soak);
        soak_s.push_back(now_s() - t0);
      }
      {
        obs::Collector collector;
        tenancy::MultiTenantSoakOptions soak = shape.soak;
        soak.collector = &collector;
        double points = 0;
        const tenancy::MultiTenantSoakCase composed =
            composed_case(cs, soak, tr, points);
        res.op(composed.storm.grant_order == sc.storm.grant_order &&
                   composed.fairness.p99_stretch == sc.fairness.p99_stretch &&
                   composed.violations.size() == sc.violations.size(),
               tag + "recomposed soak case differs from the WAL-backed case");
        if (pass == 0) {
          incidents += static_cast<double>(composed.incidents.size());
          detector_points += points;
        }
      }
      if (pass == 0)
        probes.push_back(probe_tenants(cs, shape.soak.substrate, res, tr));
    }
  }

  const double storm_case_s = mean_case_median(case_s, seeds.size());
  const double resume_s = mean_case_median(recover_s, seeds.size());
  res.named = {{"setup_s", median(setup)},
               {"storm_case_s", storm_case_s},
               {"recover_s", resume_s},
               {"reference_s", median(reference.times())},
               {"storm_drain_s", median(drain)},
               {"p99_stretch", median(p99)},
               {"mean_stretch", median(stretch)}};
  res.end_to_end = {
      {"setup_s", median(Reference::rescaled(setup, setup_ref))},
      {"primary_s", mean_case_median(Reference::rescaled(case_s, case_ref),
                                     seeds.size())},
      {"followup_s",
       mean_case_median(Reference::rescaled(recover_s, case_ref),
                        seeds.size())},
      {"cost_ratio", median(stretch)}};
  res.samples = {{"setup_s", setup},
                 {"storm_case_s", case_s},
                 {"recover_s", recover_s},
                 {"reference_s", reference.times()}};
  res.refold = {{"storm_case_s",
                 {"tenancy.substrate_s", "sim.mt_replay_s",
                  "fault.chaos_plan_s", "obs.detect_s", "tenancy.storm_s",
                  "fault.invariants_s", "obs.incidents_s",
                  "recover.wal_overhead_s"}},
                {"recover_s", {"recover.read_wal_s"}}};
  if (!tr.enabled()) return res;

  const double cases = static_cast<double>(probes.size());
  TenantProbe sum;
  for (const TenantProbe& p : probes) {
    sum.nnz += p.nnz;
    sum.csr_bytes += p.csr_bytes;
    sum.orders += p.orders;
    sum.map_cpu_s += p.map_cpu_s;
    sum.map_wall_s += p.map_wall_s;
  }
  const double map_call_s = tr.median_duration("core.map_call_s");
  const double map_cpu_s = sum.map_cpu_s / cases;
  const double fill_s = tr.median_duration("core.fill_s");
  const double total_cost_s = tr.median_duration("mapping.total_cost_s");
  const double replay_s = tr.median_duration("sim.replay_s");
  const double storm_s = tr.median_duration("tenancy.storm_s");
  const double substrate_s = tr.median_duration("tenancy.substrate_s");
  const double detect_s = tr.median_duration("obs.detect_s");
  const double invariants_s = tr.median_duration("fault.invariants_s");
  const double wal_overhead_s =
      storm_case_s - mean_case_median(soak_s, seeds.size());
  const double read_wal_s = tr.median_duration("recover.read_wal_s");
  const double tenants = shape.soak.substrate.num_tenants;
  const double nnz = sum.nnz / cases;
  const double orders = sum.orders / cases;
  res.per_layer = {
      {"trace.csr_build_s", tr.median_duration("trace.csr_build_s")},
      {"trace.nnz", nnz},
      {"trace.csr_bytes_per_nnz", sum.csr_bytes / sum.nnz},
      {"net.calibrate_s", tr.median_duration("net.calibrate_s")},
      {"core.group_s", tr.median_duration("core.group_s")},
      {"core.map_call_s", map_call_s},
      {"core.map_cpu_s", map_cpu_s},
      {"core.parallel_efficiency",
       sum.map_cpu_s /
           (sum.map_wall_s * static_cast<double>(parallel_workers()))},
      {"core.orders_evaluated", orders},
      {"core.fill_s", fill_s},
      // One fill per evaluated order plus the winner's, per tenant; the
      // span covers one fill per tenant.
      {"core.fill_cpu_share",
       (orders + tenants) * (fill_s / tenants) / map_cpu_s},
      {"mapping.total_cost_s", total_cost_s},
      {"mapping.cost_nnz_per_s", nnz / total_cost_s},
      {"sim.replay_s", replay_s},
      {"sim.replay_edges_per_s", nnz / replay_s},
      {"sim.mt_replay_s", tr.median_duration("sim.mt_replay_healthy_s") +
                              tr.median_duration("sim.mt_replay_observe_s") +
                              tr.median_duration("sim.mt_replay_post_s")},
      {"tenancy.substrate_s", substrate_s},
      {"tenancy.tenants_per_s", tenants / substrate_s},
      {"tenancy.storm_s", storm_s},
      {"tenancy.requests", requests / cases},
      {"tenancy.requeues", requeues / cases},
      {"tenancy.gave_up", gave_up / cases},
      {"tenancy.grant_ratio", requests > 0 ? granted / requests : 0},
      {"obs.detect_s", detect_s},
      {"obs.points_per_s", detector_points / cases / detect_s},
      {"obs.incidents_s", tr.median_duration("obs.incidents_s")},
      {"obs.incidents", incidents / cases},
      {"fault.chaos_plan_s", tr.median_duration("fault.chaos_plan_s")},
      {"fault.invariants_s", invariants_s},
      {"fault.invariants_checked", invariants_checked / cases},
      {"fault.events_checked_per_s", journal_events / cases / invariants_s},
      {"migrate.journal_events", journal_events / cases},
      {"migrate.events_per_s", journal_events / cases / storm_s},
      {"recover.wal_overhead_s", wal_overhead_s},
      {"recover.wal_share", wal_overhead_s / storm_case_s},
      {"recover.appends", static_cast<double>(wal.appends) / cases},
      {"recover.syncs", static_cast<double>(wal.syncs) / cases},
      {"recover.snapshots", static_cast<double>(wal.snapshots) / cases},
      {"recover.wal_bytes", wal_bytes / cases},
      {"recover.read_wal_s", read_wal_s},
      {"recover.records_replayed", records_replayed / cases},
      {"recover.records_per_s", records_replayed / cases / read_wal_s},
  };
  return res;
}

}  // namespace perfbench

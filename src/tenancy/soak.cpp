#include "tenancy/soak.h"

#include <algorithm>
#include <sstream>
#include <string>

#include "common/error.h"
#include "common/json_writer.h"
#include "common/timer.h"
#include "core/remap.h"
#include "fault/attribution.h"
#include "fault/degraded_network.h"
#include "fault/fault_plan.h"
#include "obs/collector.h"
#include "obs/detector.h"
#include "recover/records.h"
#include "recover/recovery.h"
#include "recover/wal.h"
#include "sim/netsim.h"

namespace geomap::tenancy {

void MultiTenantSoakOptions::validate() const {
  substrate.validate();
  GEOMAP_CHECK_ARG(bytes_per_process >= 0,
                   "bytes_per_process must be >= 0, got " << bytes_per_process);
  GEOMAP_CHECK_ARG(chunk_bytes > 0,
                   "chunk_bytes must be > 0, got " << chunk_bytes);
  GEOMAP_CHECK_ARG(app_rounds >= 1,
                   "app_rounds must be >= 1, got " << app_rounds);
}

namespace {

std::vector<sim::TenantFlow> flows_of(const Substrate& substrate) {
  std::vector<sim::TenantFlow> flows;
  flows.reserve(substrate.tenants.size());
  for (const Tenant& t : substrate.tenants) {
    flows.push_back({&t.problem.comm, &t.mapping});
  }
  return flows;
}

}  // namespace

MultiTenantSoakCase run_multitenant_soak_case(
    std::uint64_t seed, const MultiTenantSoakOptions& options) {
  return run_soak_case(seed, options, SoakCaseWal{}).soak_case;
}

SoakCaseRun run_soak_case(std::uint64_t seed,
                          const MultiTenantSoakOptions& options,
                          const SoakCaseWal& log) {
  options.validate();
  recover::Wal* const wal = log.wal;
  const recover::RecoveredControlPlane* const rcp = log.resume;
  GEOMAP_CHECK_ARG(wal == nullptr || options.collector != nullptr,
                   "a WAL-backed soak case requires a collector");
  GEOMAP_CHECK_ARG(rcp == nullptr || wal != nullptr,
                   "resuming a soak case requires its WAL");
  SoakCaseRun run;
  MultiTenantSoakCase& result = run.soak_case;
  result.seed = seed;
  obs::EventLog* elog =
      options.collector != nullptr ? &options.collector->events() : nullptr;
  const std::uint64_t seq0 = elog != nullptr ? elog->total() : 0;

  // 1. Substrate + solo baselines, then the log generation opens.
  Substrate substrate = make_substrate(seed, options.substrate);
  result.tenants = substrate.num_tenants();
  const std::string policy = to_string(options.scheduler.policy);
  const Timer open_timer;
  if (rcp != nullptr) {
    // Same run, new generation: seed the sanitized past so this
    // generation's snapshots keep folding it, and mark the boundary.
    GEOMAP_CHECK_ARG(
        rcp->run.seed == seed && rcp->run.tenants == substrate.num_tenants() &&
            rcp->run.sites == substrate.num_sites() &&
            rcp->run.policy == policy,
        "WAL at " << wal->dir() << " belongs to a different run (seed "
                  << rcp->run.seed << ", " << rcp->run.tenants
                  << " tenants, " << rcp->run.sites << " sites, policy "
                  << rcp->run.policy << ")");
    wal->seed_history(rcp->effective);
    std::ostringstream os;
    {
      JsonWriter w(os, /*pretty=*/false);
      w.begin_object();
      w.field("generation", rcp->recoveries + 1);
      w.field("replayed", static_cast<std::uint64_t>(log.replayed));
      w.end_object();
    }
    wal->append(recover::WalRecordType::kRecoveryBegin, 0, os.str());
    wal->sync();
  } else if (wal != nullptr) {
    recover::RunBeginRecord rb;
    rb.seed = seed;
    rb.tenants = substrate.num_tenants();
    rb.sites = substrate.num_sites();
    rb.policy = policy;
    wal->append(recover::WalRecordType::kRunBegin, 0,
                recover::encode_run_begin(rb));
    wal->sync();
  }
  // case_start first, THEN the re-emitted history: incident building
  // segments the stream at case_start markers, so a recovered stream
  // must keep the live stream's order (case_start leads).
  if (elog != nullptr) {
    elog->emit(0, obs::EventSeverity::kInfo, "soak", "case_start",
               {obs::field("seed", seed),
                obs::field("tenants", result.tenants)});
  }
  if (rcp != nullptr) recover::reemit_events(*rcp, *elog);
  run.open_seconds = open_timer.elapsed_seconds();
  const net::NetworkModel& network = substrate.tenants.front().problem.network;

  // 2. Healthy shared replay calibrates the horizon.
  const fault::FaultPlan no_faults;
  const fault::DegradedNetworkModel healthy(network, no_faults);
  sim::MultiTenantReplayOptions calibrate;
  calibrate.rounds = options.app_rounds;
  const Seconds healthy_makespan =
      sim::replay_multitenant(flows_of(substrate), healthy, calibrate)
          .makespan;

  fault::ChaosOptions chaos = options.chaos;
  chaos.num_sites = substrate.num_sites();
  chaos.horizon = healthy_makespan;
  if (chaos.migration_window_length <= 0) {
    chaos.migration_window_length = 1.5 * healthy_makespan;
    if (chaos.migration_window_faults == 0) chaos.migration_window_faults = 2;
  }
  const fault::ChaosPlan chaos_plan = fault::make_chaos_plan(seed, chaos);
  result.primary_site = chaos_plan.primary_site;
  result.outage_time = chaos_plan.primary_outage_time;
  const fault::DegradedNetworkModel degraded(network, chaos_plan.plan);

  // 3–4. Observe under fire, then detect once on the shared timeline;
  //      every affected tenant reuses the same suspect. Fall back to the
  //      oracle when detection saw nothing or accused the wrong site —
  //      the storm must run either way. A run resumed after the decision
  //      adopts the durable one instead: the storm already acted on it,
  //      and re-deciding could only disagree.
  obs::Collector telemetry;
  recover::DetectDecisionRecord decision;
  if (rcp != nullptr && rcp->has_decision) {
    decision = rcp->decision;
  } else {
    // Force-through keeps the replay terminating with the primary
    // permanently dead and records the link.timeout signals the detector
    // keys on. The replay is deterministic, so a resumed detector is
    // re-fed the very sample stream its predecessor saw.
    sim::MultiTenantReplayOptions observe;
    observe.rounds = options.app_rounds;
    observe.collector = &telemetry;
    sim::replay_multitenant(flows_of(substrate), degraded, observe);
    const std::vector<obs::LinkSample> samples =
        obs::collect_link_samples(telemetry.timeline());

    obs::DegradationDetector detector;
    std::size_t start = 0;
    if (rcp != nullptr) {
      if (rcp->has_detector) detector.restore(rcp->detector);
      GEOMAP_CHECK_ARG(rcp->watermark <= samples.size(),
                       "WAL snapshot watermark " << rcp->watermark
                                                 << " exceeds the recomputed "
                                                 << samples.size()
                                                 << "-sample stream");
      start = rcp->watermark;
    }
    detector.set_event_log(elog);
    detector.set_wal(wal);
    const std::size_t every =
        wal != nullptr && log.snapshot_every_samples > 0
            ? static_cast<std::size_t>(log.snapshot_every_samples)
            : 0;
    for (std::size_t i = start; i < samples.size(); ++i) {
      obs::feed_sample(detector, samples[i]);
      if (every > 0 && (i + 1) % every == 0 && i + 1 < samples.size()) {
        recover::SnapshotStateRecord state;
        state.watermark = i + 1;
        state.has_detector = true;
        state.detector = detector.checkpoint();
        wal->snapshot(samples[i].t, recover::encode_snapshot_state(state));
      }
    }
    const core::SuspectVote vote =
        core::vote_suspected_site(detector.events());
    decision.detected = vote.site != -1;
    decision.suspected_correct = vote.site == chaos_plan.primary_site;
    decision.suspect = vote.site;
    decision.failed_site = chaos_plan.primary_site;
    decision.outage_time = chaos_plan.primary_outage_time;
    const bool usable = decision.detected && decision.suspected_correct;
    decision.detect_time =
        usable ? vote.detection_time : chaos_plan.primary_outage_time;
    // Decision durable before anyone acts on it, then announced, then a
    // snapshot closes the detector phase (recovery after this point
    // never re-feeds the detector).
    if (wal != nullptr) {
      wal->append(recover::WalRecordType::kDetectDecision,
                  decision.detect_time,
                  recover::encode_detect_decision(decision));
      wal->sync();
    }
    if (elog != nullptr) recover::emit_detect_decision(*elog, decision);
    if (wal != nullptr) {
      recover::SnapshotStateRecord state;
      state.watermark = samples.size();
      state.has_detector = true;
      state.detector = detector.checkpoint();
      wal->snapshot(decision.detect_time,
                    recover::encode_snapshot_state(state));
    }
  }
  result.detected = decision.detected;
  result.suspected_correct = decision.suspected_correct;
  result.detect_time = decision.detect_time;
  const SiteId failed = chaos_plan.primary_site;
  // 5. Every tenant homed on the dead site queues a remap request.
  std::vector<RemapRequest> requests;
  for (const Tenant& t : substrate.tenants) {
    int stranded = 0;
    for (const SiteId s : t.mapping) {
      if (s == failed) stranded += 1;
    }
    if (stranded == 0) continue;
    RemapRequest r;
    r.tenant = t.id;
    r.request_time = result.detect_time;
    r.severity = static_cast<double>(stranded) /
                 static_cast<double>(t.mapping.size());
    requests.push_back(r);
  }
  result.requests = static_cast<int>(requests.size());

  SchedulerOptions sched = options.scheduler;
  sched.migrate.bytes_per_process = options.bytes_per_process;
  sched.migrate.chunk_bytes = options.chunk_bytes;
  sched.remap.bytes_per_process = options.bytes_per_process;
  if (sched.collector == nullptr) {
    sched.collector =
        options.collector != nullptr ? options.collector : &telemetry;
  }
  if (wal != nullptr) sched.wal = wal;

  // At-grant placements feed the checkers: one storm, so every tenant's
  // journal starts from its substrate placement.
  std::vector<Mapping> initial;
  initial.reserve(substrate.tenants.size());
  for (const Tenant& t : substrate.tenants) initial.push_back(t.mapping);

  result.storm =
      run_remap_storm(substrate, chaos_plan.plan, failed, requests, sched, rcp);

  // 6. Certify every granted journal, then the merged cross-tenant view.
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
  for (const TenantRecovery& rec : result.storm.recoveries) {
    if (!rec.granted) continue;
    journals[static_cast<std::size_t>(rec.tenant)].events = rec.report.events;
    fault::MigrationInvariantOptions tenant_inv = inv;
    tenant_inv.horizon = rec.report.finish_time;
    const std::vector<fault::InvariantViolation> v =
        fault::check_migration_invariants(
            rec.report.events, initial[static_cast<std::size_t>(rec.tenant)],
            substrate.site_capacities, chaos_plan.plan, tenant_inv);
    result.invariants_checked += 1;
    for (const fault::InvariantViolation& viol : v) {
      result.violations.push_back(
          {viol.t, "tenant " + std::to_string(rec.tenant) + ": " +
                       viol.message});
    }
  }
  const std::vector<fault::InvariantViolation> cross =
      fault::check_cross_tenant_invariants(journals, substrate.site_capacities,
                                           chaos_plan.plan);
  result.invariants_checked += 1;
  for (const fault::InvariantViolation& viol : cross) {
    result.violations.push_back({viol.t, "cross-tenant: " + viol.message});
  }

  // Post-recovery stretch: the shared fault-aware replay of the final
  // mappings from the storm's end, against each tenant's solo baseline.
  Seconds recovery_end = result.detect_time;
  for (const TenantRecovery& rec : result.storm.recoveries) {
    if (rec.granted) recovery_end = std::max(recovery_end, rec.finish_time);
  }
  run.recovery_end = recovery_end;
  sim::MultiTenantReplayOptions post;
  post.start_time = recovery_end;
  const sim::MultiTenantReplayResult shared =
      sim::replay_multitenant(flows_of(substrate), degraded, post);
  std::vector<double> stretch;
  stretch.reserve(substrate.tenants.size());
  for (int k = 0; k < substrate.num_tenants(); ++k) {
    const Tenant& t = substrate.tenants[static_cast<std::size_t>(k)];
    const Seconds solo = t.solo_makespan > 0 ? t.solo_makespan : 1.0;
    stretch.push_back(
        shared.tenants[static_cast<std::size_t>(k)].makespan / solo);
  }
  result.fairness = fairness_from_stretch(stretch);
  if (elog != nullptr) {
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

    // 7. Reconstruct the case's incidents from its event slice, grade
    //    the blame verdicts against the seeded truth, and hand both to
    //    the collector for the incidents.json export.
    result.incidents = obs::build_incidents(elog->events_since(seq0));
    // Only links between sites that actually host ranks can produce
    // evidence (traffic, timeouts, journals); a permanent outage of an
    // idle site is honestly unobservable and must not count as a miss —
    // the same contract detection scoring applies via observable_links.
    // Pre-storm placements: the storm has already evacuated the failed
    // site from substrate.tenants, so post-storm mappings would claim
    // the primary was never observable.
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
        result.incidents,
        chaos_plan.plan.truth_windows(substrate.num_sites()), sopt);
    result.attribution_scored = true;
    options.collector->incidents().add(result.incidents);
    options.collector->incidents().add_totals(result.attribution);
  }
  return run;
}

MultiTenantSoakReport run_multitenant_soak(
    const std::vector<std::uint64_t>& seeds,
    const MultiTenantSoakOptions& options) {
  MultiTenantSoakReport report;
  report.cases.reserve(seeds.size());
  for (const std::uint64_t seed : seeds) {
    report.cases.push_back(run_multitenant_soak_case(seed, options));
    const MultiTenantSoakCase& c = report.cases.back();
    report.seeds_run += 1;
    report.total_violations += static_cast<int>(c.violations.size());
    report.total_invariants_checked += c.invariants_checked;
    report.total_requeues += c.storm.requeues;
    report.total_gave_up += c.storm.gave_up;
    if (c.detected) report.detected_cases += 1;
    if (c.attribution_scored) report.attribution.merge(c.attribution);
  }
  return report;
}

}  // namespace geomap::tenancy

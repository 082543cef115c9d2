#include "migrate/soak.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/geodist_mapper.h"
#include "core/remap.h"
#include "fault/attribution.h"
#include "fault/chaos.h"
#include "fault/fault_plan.h"
#include "mapping/problem.h"
#include "net/cloud.h"
#include "net/network_model.h"
#include "obs/collector.h"
#include "obs/detector.h"
#include "runtime/comm.h"
#include "trace/comm_matrix.h"

namespace geomap::migrate {

void SoakOptions::validate() const {
  GEOMAP_CHECK_ARG(ranks >= 2, "soak needs >= 2 ranks, got " << ranks);
  GEOMAP_CHECK_ARG(num_sites >= 3,
                   "soak needs >= 3 sites (one dies and migrations must "
                   "still have a choice), got "
                       << num_sites);
  GEOMAP_CHECK_ARG(app_rounds >= 1,
                   "soak needs >= 1 application round, got " << app_rounds);
  GEOMAP_CHECK_ARG(constraint_ratio >= 0.0 && constraint_ratio < 1.0,
                   "constraint_ratio must be in [0, 1), got "
                       << constraint_ratio);
  GEOMAP_CHECK_ARG(bytes_per_process >= 0,
                   "bytes_per_process must be >= 0, got " << bytes_per_process);
  GEOMAP_CHECK_ARG(chunk_bytes > 0,
                   "chunk_bytes must be > 0, got " << chunk_bytes);
}

namespace {

/// Synthesize the deployment for one case: a synthetic multi-region
/// cloud with enough survivor capacity to absorb the primary outage, a
/// ring plus random sparse extra traffic, optional pins.
mapping::MappingProblem make_problem(std::uint64_t seed,
                                     const SoakOptions& options) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  // Capacity sizing: after one permanent site outage the survivors alone
  // must host every rank, with one spare slot so replans have freedom.
  const int survivors = options.num_sites - 1;
  const int nodes_per_site = (options.ranks + survivors - 1) / survivors + 1;
  const net::CloudTopology topo(
      net::synthetic_profile(options.num_sites, nodes_per_site, seed));

  mapping::MappingProblem p;
  trace::CommMatrix::Builder b(options.ranks);
  for (ProcessId i = 0; i < options.ranks; ++i) {
    const auto ring = static_cast<ProcessId>((i + 1) % options.ranks);
    b.add_message(i, ring, rng.uniform(64.0 * 1024, 512.0 * 1024),
                  static_cast<double>(rng.uniform_int(2, 20)));
    const auto j = static_cast<ProcessId>(rng.uniform_index(
        static_cast<std::size_t>(options.ranks)));
    if (j != i) {
      b.add_message(i, j, rng.uniform(16.0 * 1024, 256.0 * 1024),
                    static_cast<double>(rng.uniform_int(1, 10)));
    }
  }
  p.comm = b.build();
  p.network = net::NetworkModel::from_ground_truth(topo);
  p.capacities = topo.capacities();
  p.site_coords = topo.coordinates();
  if (options.constraint_ratio > 0) {
    p.constraints = mapping::make_random_constraints(
        options.ranks, p.capacities, options.constraint_ratio, rng);
  }
  p.validate();
  return p;
}

/// The synthetic application body: allreduce + ring exchange + compute,
/// `rounds` times. Identical for the healthy calibration run and the
/// faulted telemetry run.
runtime::RunResult run_app(const mapping::MappingProblem& problem,
                           const Mapping& mapping, int rounds,
                           const fault::FaultPlan* plan,
                           obs::Collector* collector) {
  runtime::Runtime rt(problem.network, mapping);
  if (plan != nullptr) rt.set_fault_plan(plan);
  if (collector != nullptr) rt.set_collector(collector);
  return rt.run([rounds](runtime::Comm& c) {
    std::vector<double> v(256, 1.0);
    for (int r = 0; r < rounds; ++r) {
      c.allreduce(v, runtime::ReduceOp::kSum);
      const int to = (c.rank() + 1) % c.size();
      const int from = (c.rank() + c.size() - 1) % c.size();
      v = c.sendrecv(to, r, v, from, r);
      c.compute(1e7);
    }
  });
}

}  // namespace

void emit_detect_decision(obs::EventLog& log, Seconds t, bool detected,
                          bool suspected_correct, SiteId suspect,
                          SiteId failed_site, Seconds outage_time) {
  log.emit(t,
           suspected_correct ? obs::EventSeverity::kInfo
                             : obs::EventSeverity::kWarn,
           "soak", "detect",
           {obs::field("detected", detected),
            obs::field("suspected_correct", suspected_correct),
            obs::field("suspect", suspect),
            obs::field("failed_site", failed_site),
            obs::field("outage_time", outage_time)});
}

SoakCase run_soak_case(std::uint64_t seed, const SoakOptions& options) {
  options.validate();
  SoakCase result;
  result.seed = seed;

  obs::Collector* const coll = options.collector;
  obs::EventLog* elog = coll != nullptr ? &coll->events() : nullptr;
  const std::uint64_t seq0 = elog != nullptr ? elog->total() : 0;

  const mapping::MappingProblem problem = make_problem(seed, options);
  core::GeoDistMapper mapper(options.migrate.mapper);
  const Mapping initial = mapper.map(problem);

  // 1. Healthy run calibrates the virtual horizon the faults land in.
  result.healthy_makespan =
      run_app(problem, initial, options.app_rounds, nullptr, nullptr).makespan;

  // 2. Draw the chaos plan for that horizon. The migration window is
  //    anchored at the primary outage (recovery starts there) and spans
  //    1.5 healthy horizons — roughly where the executor will be copying.
  fault::ChaosOptions chaos = options.chaos;
  chaos.num_sites = options.num_sites;
  chaos.horizon = result.healthy_makespan;
  if (chaos.migration_window_length <= 0) {
    chaos.migration_window_length = 1.5 * result.healthy_makespan;
    if (chaos.migration_window_faults == 0) chaos.migration_window_faults = 2;
  }
  const fault::ChaosPlan chaos_plan = fault::make_chaos_plan(seed, chaos);
  result.primary_site = chaos_plan.primary_site;
  result.outage_time = chaos_plan.primary_outage_time;
  if (elog != nullptr) {
    elog->emit(0, obs::EventSeverity::kInfo, "soak", "case_start",
               {obs::field("seed", seed), obs::field("ranks", options.ranks)});
  }

  // 3. Rerun under the chaos plan with telemetry on. Transfers forced
  //    through after retry exhaustion keep the run terminating even with
  //    the primary site permanently dead.
  obs::Collector telemetry;
  run_app(problem, initial, options.app_rounds, &chaos_plan.plan, &telemetry);

  // 4. Detect and remap. Detection can fail in two honest ways: no down
  //    events at all (the dead site carried no observed traffic), or the
  //    wrong site accused (the post-remap replay crosses the real outage
  //    and throws). Both fall back to the oracle policy — the soak's
  //    subject is the migration executor, which must survive either path.
  core::RemapOptions ropts;
  ropts.mapper = options.migrate.mapper;
  ropts.bytes_per_process = options.bytes_per_process;

  obs::DegradationDetector detector;
  detector.set_event_log(elog);
  detector.scan(telemetry.timeline());

  Mapping target;
  SiteId suspect = -1;
  try {
    const core::DetectionRemapResult detection = core::remap_on_detection(
        problem, initial, detector.events(), chaos_plan.plan, ropts);
    result.detected = true;
    result.suspected_correct =
        detection.suspected_site == chaos_plan.primary_site;
    suspect = detection.suspected_site;
    result.remap_time = detection.detection_time;
    target = detection.remap.mapping;
  } catch (const Error&) {
    const core::RemapResult oracle = core::remap_on_outage(
        problem, initial, chaos_plan.plan, chaos_plan.primary_site,
        chaos_plan.primary_outage_time, ropts);
    result.remap_time = chaos_plan.primary_outage_time;
    target = oracle.mapping;
  }
  if (elog != nullptr) {
    emit_detect_decision(*elog, result.remap_time, result.detected,
                         result.suspected_correct, suspect,
                         chaos_plan.primary_site,
                         chaos_plan.primary_outage_time);
  }

  // 5. Execute the recovery under the same chaos plan and certify the
  //    journal.
  MigrationOptions mopts = options.migrate;
  mopts.bytes_per_process = options.bytes_per_process;
  mopts.chunk_bytes = options.chunk_bytes;
  mopts.collector = coll;
  result.report = execute_migration(problem, initial, target, chaos_plan.plan,
                                    result.remap_time, mopts);

  fault::MigrationInvariantOptions inv;
  inv.planned_bytes_per_process = options.bytes_per_process;
  inv.chunk_bytes = options.chunk_bytes;
  inv.max_retries = mopts.retry.max_retries;
  // Replans and emergency placements consume copy attempts beyond the
  // per-process budget; the checker's bound must cover the executor's
  // true worst case.
  inv.max_copy_attempts =
      mopts.max_copy_attempts + mopts.max_replans + mopts.max_emergency_attempts;
  inv.horizon = result.report.finish_time;
  result.violations = fault::check_migration_invariants(
      result.report.events, initial, problem.capacities, chaos_plan.plan, inv);

  // 6. Fold the case's event slice into incidents, grade the blame
  //    verdicts against the seeded truth, and hand both to the collector
  //    for the incidents.json export.
  if (elog != nullptr) {
    elog->emit(result.report.finish_time,
               result.violations.empty() ? obs::EventSeverity::kInfo
                                         : obs::EventSeverity::kError,
               "soak", "case_done",
               {obs::field("seed", seed),
                obs::field("committed", result.report.processes_committed),
                obs::field("rollbacks", result.report.rollbacks),
                obs::field("replans", result.report.replans),
                obs::field("abandoned", result.report.processes_abandoned),
                obs::field("violations", result.violations.size())});
    result.incidents = obs::build_incidents(elog->events_since(seq0));
    // Only links between sites hosting ranks can produce evidence; an
    // outage of an idle site is honestly unobservable and is excluded
    // from recall, matching detection scoring's observable_links.
    fault::AttributionScoreOptions sopt;
    std::vector<bool> used(static_cast<std::size_t>(options.num_sites), false);
    for (const SiteId s : initial) {
      if (s >= 0) used[static_cast<std::size_t>(s)] = true;
    }
    for (SiteId a = 0; a < options.num_sites; ++a) {
      for (SiteId b = a + 1; b < options.num_sites; ++b) {
        if (used[static_cast<std::size_t>(a)] &&
            used[static_cast<std::size_t>(b)])
          sopt.observable_links.push_back({a, b});
      }
    }
    result.attribution = fault::score_attribution(
        result.incidents, chaos_plan.plan.truth_windows(options.num_sites),
        sopt);
    result.attribution_scored = true;
    coll->incidents().add(result.incidents);
    coll->incidents().add_totals(result.attribution);
  }
  return result;
}

SoakReport run_chaos_soak(const std::vector<std::uint64_t>& seeds,
                          const SoakOptions& options) {
  SoakReport report;
  report.cases.reserve(seeds.size());
  for (const std::uint64_t seed : seeds) {
    report.cases.push_back(run_soak_case(seed, options));
    const SoakCase& c = report.cases.back();
    report.total_violations += static_cast<int>(c.violations.size());
    if (c.detected) {
      ++report.detected_cases;
    } else {
      ++report.fallback_cases;
    }
    report.total_committed += c.report.processes_committed;
    report.total_rollbacks += c.report.rollbacks;
    report.total_replans += c.report.replans;
    report.total_abandoned += c.report.processes_abandoned;
    if (c.attribution_scored) report.attribution.merge(c.attribution);
  }
  return report;
}

}  // namespace geomap::migrate

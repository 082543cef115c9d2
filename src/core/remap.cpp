#include "core/remap.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "common/error.h"
#include "fault/degraded_network.h"
#include "mapping/cost.h"
#include "sim/netsim.h"

namespace geomap::core {

namespace {

/// Cheapest surviving source site for a replica fetch into `dst`.
SiteId cheapest_survivor(const net::NetworkModel& model, SiteId dst,
                         SiteId failed_site, Bytes bytes) {
  SiteId best = -1;
  Seconds best_time = std::numeric_limits<double>::infinity();
  for (SiteId s = 0; s < model.num_sites(); ++s) {
    if (s == failed_site || s == dst) continue;
    const Seconds t = model.transfer_time(s, dst, bytes);
    if (t < best_time) {
      best_time = t;
      best = s;
    }
  }
  return best;
}

/// Shared recovery core: exclude `failed_site` as of `remap_time`, rerun
/// the mapper over the survivors, evaluate under the true plan. The
/// mapper optimizes `perceived` when given (a detector's estimate of the
/// degraded network); the oracle policy passes nullptr and optimizes the
/// true degraded snapshot. Evaluation (degraded/post-remap costs, replay
/// makespans, migration pricing) always uses the truth, so oracle and
/// detection recoveries are directly comparable.
RemapResult remap_excluding(const mapping::MappingProblem& problem,
                            const Mapping& current,
                            const fault::FaultPlan& plan, SiteId failed_site,
                            Seconds remap_time,
                            const net::NetworkModel* perceived,
                            const char* replay_label_prefix,
                            const RemapOptions& options) {
  GEOMAP_CHECK_MSG(failed_site >= 0 && failed_site < problem.num_sites(),
                   "failed site " << failed_site << " out of range");
  GEOMAP_CHECK_ARG(options.bytes_per_process >= 0,
                   "bytes_per_process must be non-negative, got "
                       << options.bytes_per_process);
  mapping::validate_mapping(problem, current);

  const fault::DegradedNetworkModel degraded(problem.network, plan);
  const net::NetworkModel truth = degraded.snapshot(remap_time);

  RemapResult result;
  result.pre_fault_cost =
      mapping::alpha_beta_cost(problem.comm, problem.network, current);

  // Rebuild the instance as of the remap: the network view the policy
  // acts on, dead site excluded by capacity, surviving pins kept (pins to
  // the dead site are released).
  result.problem = problem;
  result.problem.network = perceived != nullptr ? *perceived : truth;
  result.problem.capacities[static_cast<std::size_t>(failed_site)] = 0;
  if (!result.problem.constraints.empty()) {
    for (SiteId& pin : result.problem.constraints) {
      if (pin == failed_site) pin = kUnconstrained;
    }
  }
  if (!result.problem.allowed_sites.empty()) {
    for (auto& allowed : result.problem.allowed_sites) {
      allowed.erase(std::remove(allowed.begin(), allowed.end(), failed_site),
                    allowed.end());
      // A list that only named the dead site becomes unrestricted: the
      // data residency it encoded can no longer be honoured anywhere.
    }
  }
  // Feasibility first, with a typed error: the generic validate() below
  // reports capacity shortfall as InvalidArgument, which callers cannot
  // tell apart from malformed input.
  int surviving_capacity = 0;
  for (std::size_t s = 0; s < result.problem.capacities.size(); ++s) {
    surviving_capacity += result.problem.capacities[s];
  }
  const int n = problem.num_processes();
  if (surviving_capacity < n) {
    std::ostringstream os;
    os << "remap infeasible: surviving sites hold " << surviving_capacity
       << " slots for " << n << " processes after excluding site "
       << failed_site << " — the deployment cannot survive this outage";
    throw RemapInfeasible(os.str());
  }
  result.problem.validate();

  result.degraded_cost = mapping::alpha_beta_cost(problem.comm, truth, current);

  GeoDistMapper mapper(options.mapper);
  mapper.set_collector(options.collector);
  result.mapping = mapper.map(result.problem);
  mapping::validate_mapping(result.problem, result.mapping);

  result.post_remap_cost =
      mapping::alpha_beta_cost(problem.comm, truth, result.mapping);

  // Replay makespans: the healthy pre-fault execution of the old mapping,
  // and the recovered execution — the post-remap mapping replayed
  // fault-aware from the remap instant (it avoids the dead site, so the
  // permanent outage is never crossed).
  const std::string prefix = replay_label_prefix;
  result.pre_fault_makespan =
      sim::replay_with_contention(problem.comm, problem.network, current,
                                  options.collector,
                                  (prefix + "/pre_fault").c_str())
          .makespan;
  result.post_remap_makespan =
      sim::replay_with_contention(problem.comm, degraded, result.mapping,
                                  remap_time, options.collector,
                                  (prefix + "/post_remap").c_str())
          .makespan;

  // Relocation bill: every moved process ships its state over the
  // degraded network; state stranded on the dead site is fetched from the
  // cheapest surviving replica site instead.
  const Bytes bytes = options.bytes_per_process;
  for (std::size_t i = 0; i < current.size(); ++i) {
    const SiteId from = current[i];
    const SiteId to = result.mapping[i];
    if (from == to) continue;
    const SiteId src = from == failed_site
                           ? cheapest_survivor(truth, to, failed_site, bytes)
                           : from;
    if (src >= 0) {
      result.migration_seconds += truth.transfer_time(src, to, bytes);
    }
    result.bytes_moved += bytes;
    result.processes_moved += 1;
  }
  return result;
}

}  // namespace

RemapResult remap_on_outage(const mapping::MappingProblem& problem,
                            const Mapping& current,
                            const fault::FaultPlan& plan, SiteId failed_site,
                            Seconds outage_time, const RemapOptions& options) {
  return remap_excluding(problem, current, plan, failed_site, outage_time,
                         /*perceived=*/nullptr, "remap", options);
}

SuspectVote vote_suspected_site(
    const std::vector<obs::DegradationEvent>& events) {
  // Vote: a down site shows up as down events on *many* of its incident
  // links; a single flaky link implicates each endpoint only once. Ties
  // on distinct links break by total down events (repeated episodes on
  // one link outrank a single blip), then by earliest detection, then by
  // smaller id — fully deterministic.
  struct Vote {
    std::set<std::pair<SiteId, SiteId>> links;
    int down_events = 0;
    Seconds earliest_detect = std::numeric_limits<double>::infinity();
  };
  std::map<SiteId, Vote> implicated;
  for (const obs::DegradationEvent& e : events) {
    if (e.kind != obs::DegradationKind::kDown) continue;
    for (const SiteId site : {e.src, e.dst}) {
      Vote& vote = implicated[site];
      vote.links.insert({e.src, e.dst});
      vote.down_events += 1;
      vote.earliest_detect = std::min(vote.earliest_detect, e.detect_vtime);
    }
  }
  SuspectVote result;
  if (implicated.empty()) return result;

  const Vote* best = nullptr;
  for (const auto& [site, vote] : implicated) {
    const bool wins =
        best == nullptr || vote.links.size() > best->links.size() ||
        (vote.links.size() == best->links.size() &&
         (vote.down_events > best->down_events ||
          (vote.down_events == best->down_events &&
           vote.earliest_detect < best->earliest_detect)));
    // Equal on every criterion: keep the incumbent — std::map iterates
    // ids ascending, so the smaller id wins the final tie.
    if (wins) {
      best = &vote;
      result.site = site;
    }
  }

  result.detection_time = std::numeric_limits<double>::infinity();
  for (const obs::DegradationEvent& e : events) {
    if (e.kind != obs::DegradationKind::kDown) continue;
    if (e.src != result.site && e.dst != result.site) continue;
    result.down_events += 1;
    result.detection_time = std::min(result.detection_time, e.detect_vtime);
  }
  return result;
}

DetectionRemapResult remap_on_detection(
    const mapping::MappingProblem& problem, const Mapping& current,
    const std::vector<obs::DegradationEvent>& events,
    const fault::FaultPlan& plan, const RemapOptions& options) {
  const SuspectVote vote = vote_suspected_site(events);
  GEOMAP_CHECK_ARG(vote.site != -1,
                   "remap_on_detection needs at least one down event — no "
                   "actionable detection");

  DetectionRemapResult result;
  result.suspected_site = vote.site;
  result.detection_time = vote.detection_time;
  result.down_events = vote.down_events;

  // The perceived network: what the detector estimated, not the oracle
  // snapshot. Each latency episode active at detection time inflates its
  // link by the severity estimate s — LT' = s·LT and BT' = BT/s, so a
  // message's perceived wire time is exactly s times healthy, matching
  // the observed inflation ratio the severity was fitted to.
  Matrix latency = problem.network.latency_matrix();
  Matrix bandwidth = problem.network.bandwidth_matrix();
  for (const obs::DegradationEvent& e : events) {
    if (e.kind != obs::DegradationKind::kLatency) continue;
    if (e.onset_vtime > result.detection_time ||
        e.end_vtime < result.detection_time) {
      continue;
    }
    if (e.src < 0 || e.src >= problem.num_sites() || e.dst < 0 ||
        e.dst >= problem.num_sites()) {
      continue;
    }
    const double severity = std::max(1.0, e.severity);
    latency(static_cast<std::size_t>(e.src), static_cast<std::size_t>(e.dst)) *=
        severity;
    bandwidth(static_cast<std::size_t>(e.src),
              static_cast<std::size_t>(e.dst)) /= severity;
  }
  const net::NetworkModel perceived(std::move(latency), std::move(bandwidth));

  result.remap = remap_excluding(problem, current, plan, result.suspected_site,
                                 result.detection_time, &perceived,
                                 "detect_remap", options);
  return result;
}

Seconds RemapRetryPolicy::backoff(int attempt) const {
  GEOMAP_CHECK_ARG(attempt >= 1, "backoff attempt must be >= 1, got "
                                     << attempt);
  Seconds wait = initial_backoff;
  for (int i = 1; i < attempt; ++i) {
    wait *= backoff_multiplier;
    if (wait >= max_backoff) return max_backoff;
  }
  return std::min(wait, max_backoff);
}

void RemapRetryPolicy::validate() const {
  GEOMAP_CHECK_ARG(max_attempts >= 1, "max_attempts must be >= 1, got "
                                          << max_attempts);
  GEOMAP_CHECK_ARG(initial_backoff >= 0,
                   "initial_backoff must be non-negative, got "
                       << initial_backoff);
  GEOMAP_CHECK_ARG(backoff_multiplier >= 1.0,
                   "backoff_multiplier must be >= 1, got "
                       << backoff_multiplier);
  GEOMAP_CHECK_ARG(max_backoff >= initial_backoff,
                   "max_backoff " << max_backoff
                                  << " must be >= initial_backoff "
                                  << initial_backoff);
}

RetriedRemapResult remap_on_outage_with_retry(
    const mapping::MappingProblem& problem, const Mapping& current,
    const fault::FaultPlan& plan, SiteId failed_site, Seconds outage_time,
    const RemapOptions& options, const RemapRetryPolicy& retry,
    const CapacityProbe& capacities_at) {
  retry.validate();

  RetriedRemapResult result;
  Seconds waited = 0;
  std::string last_reason;
  for (int attempt = 1; attempt <= retry.max_attempts; ++attempt) {
    const Seconds t = outage_time + waited;
    mapping::MappingProblem view = problem;
    if (capacities_at != nullptr) {
      view.capacities = capacities_at(t);
      GEOMAP_CHECK_ARG(
          view.capacities.size() ==
              static_cast<std::size_t>(problem.num_sites()),
          "capacity probe returned " << view.capacities.size()
                                     << " sites, problem has "
                                     << problem.num_sites());
    }
    try {
      result.remap =
          remap_on_outage(view, current, plan, failed_site, t, options);
      result.attempts = attempt;
      result.decided_at = t;
      result.waited = waited;
      return result;
    } catch (const RemapInfeasible& e) {
      last_reason = e.what();
      if (attempt < retry.max_attempts) waited += retry.backoff(attempt);
    }
  }
  std::ostringstream os;
  os << "remap gave up after " << retry.max_attempts
     << " infeasible attempts over " << waited
     << " virtual seconds (outage at t=" << outage_time
     << ", last attempt at t=" << outage_time + waited
     << "): " << last_reason;
  throw RemapGaveUp(os.str(), retry.max_attempts, outage_time + waited);
}

}  // namespace geomap::core

#include "tenancy/scheduler.h"

#include <algorithm>
#include <limits>
#include <set>
#include <string>

#include "common/error.h"
#include "obs/collector.h"
#include "recover/records.h"
#include "recover/wal.h"

namespace geomap::tenancy {

const char* to_string(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kFifo:
      return "fifo";
    case SchedulerPolicy::kSeverity:
      return "severity";
    case SchedulerPolicy::kFairShare:
      return "fair_share";
  }
  return "?";
}

void SchedulerOptions::validate() const {
  GEOMAP_CHECK_ARG(max_concurrent >= 1,
                   "max_concurrent must be >= 1, got " << max_concurrent);
  retry.validate();
  if (policy == SchedulerPolicy::kFairShare) {
    GEOMAP_CHECK_ARG(fair_share_tokens >= 0,
                     "fair_share_tokens must be >= 0, got "
                         << fair_share_tokens);
    GEOMAP_CHECK_ARG(token_refill_per_second > 0,
                     "fair-share needs token_refill_per_second > 0 (a tenant "
                     "costing more than the initial budget must eventually "
                     "afford its grant), got "
                         << token_refill_per_second);
  }
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<int> residents_of(const Mapping& mapping, int num_sites) {
  std::vector<int> r(static_cast<std::size_t>(num_sites), 0);
  for (const SiteId s : mapping) r[static_cast<std::size_t>(s)] += 1;
  return r;
}

/// Per-site peak of residents + reservations over a migration journal,
/// starting from the at-grant mapping. This is the capacity charge other
/// tenants must see while the migration is in flight: the executor never
/// exceeds it, so summed charges never exceed the granted views.
std::vector<int> journal_peaks(const std::vector<fault::MigrationEvent>& events,
                               const Mapping& at_grant, int num_sites) {
  std::vector<int> occ = residents_of(at_grant, num_sites);
  std::vector<int> peak = occ;
  Mapping home = at_grant;
  std::vector<SiteId> rsv(home.size(), -1);
  const auto bump = [&](SiteId s) {
    const std::size_t i = static_cast<std::size_t>(s);
    peak[i] = std::max(peak[i], occ[i]);
  };
  for (const fault::MigrationEvent& e : events) {
    if (e.kind == fault::MigrationEventKind::kReplan || e.process < 0 ||
        e.process >= static_cast<ProcessId>(home.size())) {
      continue;
    }
    const std::size_t p = static_cast<std::size_t>(e.process);
    switch (e.kind) {
      case fault::MigrationEventKind::kReserve:
        occ[static_cast<std::size_t>(e.site_to)] += 1;
        rsv[p] = e.site_to;
        bump(e.site_to);
        break;
      case fault::MigrationEventKind::kRelease:
        occ[static_cast<std::size_t>(e.site_to)] -= 1;
        rsv[p] = -1;
        break;
      case fault::MigrationEventKind::kCommit: {
        const SiteId cur = home[p];
        occ[static_cast<std::size_t>(cur)] -= 1;
        if (rsv[p] == e.site_to) rsv[p] = -1;
        // Reservation slot becomes the resident slot: net zero on site_to.
        home[p] = e.site_to;
        break;
      }
      default:
        break;
    }
  }
  return peak;
}

struct PendingRequest {
  RemapRequest request;
  int attempts = 0;
  Seconds next_eligible = 0;
  std::size_t slot = 0;  // index into StormReport::recoveries
  bool done = false;
};

struct InFlight {
  int tenant = -1;
  Seconds finish = 0;
  std::vector<int> peak;   // capacity charge while in flight
  Mapping final_mapping;   // committed into the substrate at retirement
};

}  // namespace

StormReport run_remap_storm(Substrate& substrate, const fault::FaultPlan& plan,
                            SiteId failed_site,
                            const std::vector<RemapRequest>& requests,
                            const SchedulerOptions& options,
                            const StormResume* resume) {
  options.validate();
  const int m = substrate.num_sites();
  GEOMAP_CHECK_ARG(failed_site >= 0 && failed_site < m,
                   "failed site " << failed_site << " out of range");

  StormReport report;
  std::vector<PendingRequest> pending;
  std::set<int> seen;
  Seconds t0 = kInf;
  for (const RemapRequest& r : requests) {
    GEOMAP_CHECK_ARG(r.tenant >= 0 && r.tenant < substrate.num_tenants(),
                     "request names invalid tenant " << r.tenant);
    GEOMAP_CHECK_ARG(seen.insert(r.tenant).second,
                     "tenant " << r.tenant << " requested twice");
    PendingRequest p;
    p.request = r;
    p.next_eligible = r.request_time;
    p.slot = report.recoveries.size();
    pending.push_back(p);
    TenantRecovery rec;
    rec.tenant = r.tenant;
    rec.request_time = r.request_time;
    rec.severity = r.severity;
    report.recoveries.push_back(std::move(rec));
    t0 = std::min(t0, r.request_time);
  }
  if (pending.empty()) return report;

  obs::TimeSeriesRegistry* timeline =
      options.collector != nullptr ? &options.collector->timeline() : nullptr;
  obs::EventLog* elog =
      options.collector != nullptr ? &options.collector->events() : nullptr;
  // Requests a crashed predecessor already made durable are neither
  // logged nor announced again: recovery re-emits their queue events from
  // the sched_request records, in the original order.
  const std::size_t durable =
      resume != nullptr ? resume->durable_requests : 0;
  if (options.wal != nullptr && durable < pending.size()) {
    for (std::size_t i = durable; i < pending.size(); ++i) {
      recover::SchedRequestRecord r;
      r.tenant = pending[i].request.tenant;
      r.request_time = pending[i].request.request_time;
      r.severity = pending[i].request.severity;
      options.wal->append(recover::WalRecordType::kSchedRequest,
                          r.request_time, recover::encode_sched_request(r));
    }
    options.wal->sync();
  }
  if (elog != nullptr) {
    for (std::size_t i = durable; i < pending.size(); ++i) {
      elog->emit(pending[i].request.request_time, obs::EventSeverity::kInfo,
                 "scheduler", "queue",
                 {obs::field("tenant", pending[i].request.tenant),
                  obs::field("severity", pending[i].request.severity)});
    }
  }

  if (resume != nullptr) {
    GEOMAP_CHECK_ARG(resume->pending.size() == pending.size(),
                     "storm resume has " << resume->pending.size()
                                         << " queue entries for "
                                         << pending.size() << " requests");
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const ResumePending& rp = resume->pending[i];
      PendingRequest& p = pending[i];
      GEOMAP_CHECK_ARG(rp.tenant == p.request.tenant,
                       "storm resume queue entry " << i << " names tenant "
                                                   << rp.tenant << ", expected "
                                                   << p.request.tenant);
      p.attempts = rp.attempts;
      p.next_eligible = std::max(p.next_eligible, rp.next_eligible);
      p.done = rp.done;
      TenantRecovery& rec = report.recoveries[p.slot];
      rec.attempts = rp.attempts;
      if (rp.gave_up) rec.gave_up = true;
    }
    report.requeues = resume->requeues;
    report.gave_up = resume->gave_up;
    if (options.collector != nullptr) {
      for (int i = 0; i < resume->requeues; ++i)
        options.collector->metrics().counter("tenant.requeues").add();
      for (int i = 0; i < resume->gave_up; ++i)
        options.collector->metrics().counter("tenant.gave_up").add();
    }
  }

  std::vector<double> consumed(
      static_cast<std::size_t>(substrate.num_tenants()), 0.0);
  const auto tokens_at = [&](int tenant, Seconds t) {
    return options.fair_share_tokens +
           options.token_refill_per_second * (t - t0) -
           consumed[static_cast<std::size_t>(tenant)];
  };
  const auto grant_cost = [&](int tenant) {
    return static_cast<double>(
        substrate.tenants[static_cast<std::size_t>(tenant)]
            .problem.num_processes());
  };
  // Earliest instant the request is allowed to be granted: its backoff
  // eligibility, and under fair-share additionally when the refill makes
  // its grant affordable.
  const auto eligible_at = [&](const PendingRequest& p) {
    Seconds t = p.next_eligible;
    if (options.policy == SchedulerPolicy::kFairShare) {
      const double cost = grant_cost(p.request.tenant);
      const double deficit = cost - tokens_at(p.request.tenant, t);
      if (deficit > 0) t += deficit / options.token_refill_per_second;
    }
    return t;
  };

  std::vector<InFlight> inflight;
  Seconds now = t0;
  Seconds last_activity = t0;

  const auto retire_until = [&](Seconds t) {
    // Retire in finish order (ties by tenant id) so the committed-mapping
    // updates land deterministically.
    for (;;) {
      int best = -1;
      for (int i = 0; i < static_cast<int>(inflight.size()); ++i) {
        if (inflight[static_cast<std::size_t>(i)].finish > t) continue;
        if (best == -1 ||
            inflight[static_cast<std::size_t>(i)].finish <
                inflight[static_cast<std::size_t>(best)].finish ||
            (inflight[static_cast<std::size_t>(i)].finish ==
                 inflight[static_cast<std::size_t>(best)].finish &&
             inflight[static_cast<std::size_t>(i)].tenant <
                 inflight[static_cast<std::size_t>(best)].tenant)) {
          best = i;
        }
      }
      if (best == -1) return;
      const InFlight f = inflight[static_cast<std::size_t>(best)];
      inflight.erase(inflight.begin() + best);
      substrate.tenants[static_cast<std::size_t>(f.tenant)].mapping =
          f.final_mapping;
    }
  };

  const auto pending_of = [&](int tenant) -> PendingRequest& {
    for (PendingRequest& p : pending) {
      if (p.request.tenant == tenant) return p;
    }
    GEOMAP_CHECK_ARG(false, "storm resume names tenant "
                                << tenant << " that filed no request");
    return pending.front();  // unreachable
  };

  if (resume != nullptr) {
    last_activity = std::max(last_activity, resume->last_activity);

    // Replay finished grants into the ledgers — grant order, fair-share
    // spend, and the in-flight capacity charges with their real finish
    // times, so the remaining queue sees exactly the occupancy the
    // uninterrupted run would have at every instant. Their migrations
    // are not re-executed; retire_until commits the recorded final
    // mappings as virtual time passes.
    for (const ResumeFinished& rf : resume->finished) {
      PendingRequest& p = pending_of(rf.tenant);
      GEOMAP_CHECK_ARG(p.done, "storm resume finished grant for tenant "
                                   << rf.tenant
                                   << " whose queue entry is not done");
      p.attempts = rf.attempts;
      TenantRecovery& rec = report.recoveries[p.slot];
      rec.attempts = rf.attempts;
      rec.granted = true;
      rec.granted_at = rf.granted_at;
      rec.report = rf.report;
      rec.finish_time = rf.granted_at + rf.report.migration_seconds;
      report.grant_order.push_back(rf.tenant);
      if (options.policy == SchedulerPolicy::kFairShare)
        consumed[static_cast<std::size_t>(rf.tenant)] += grant_cost(rf.tenant);
      InFlight f;
      f.tenant = rf.tenant;
      f.finish = rec.finish_time;
      f.peak = journal_peaks(rf.report.events, rf.at_grant, m);
      f.final_mapping = rf.report.final_mapping;
      inflight.push_back(std::move(f));
      if (timeline != nullptr) {
        const std::string label = obs::tenant_label(rf.tenant);
        timeline->series("tenant.queue_wait", label)
            .record(rf.granted_at, rf.granted_at - p.request.request_time);
        timeline->series("tenant.grant_attempts", label)
            .record(rf.granted_at, static_cast<double>(rf.attempts));
      }
    }

    // Redo the interrupted grant idempotently: same grant instant, same
    // attempt count, the recorded capacity view and remap target — the
    // executor is deterministic, so the redone journal extends the
    // durable prefix instead of double-committing. No new sched_grant
    // record is written (the original is durable); the finish record and
    // the streamed grant event land now.
    if (resume->interrupted.active) {
      const ResumeInterrupted& ri = resume->interrupted;
      const int k = ri.tenant;
      PendingRequest& p = pending_of(k);
      GEOMAP_CHECK_ARG(!p.done, "storm resume interrupted grant for tenant "
                                    << k << " whose queue entry is done");
      p.attempts = ri.attempts;
      TenantRecovery& rec = report.recoveries[p.slot];
      rec.attempts = ri.attempts;
      now = std::max(now, ri.granted_at);
      last_activity = std::max(last_activity, ri.granted_at);

      mapping::MappingProblem view =
          substrate.tenants[static_cast<std::size_t>(k)].problem;
      view.capacities = ri.view_capacities;
      migrate::MigrationOptions mopts = options.migrate;
      mopts.record_events = true;
      mopts.collector = options.collector;
      if (options.collector != nullptr)
        mopts.timeline_label_prefix = obs::tenant_label(k) + ":";
      mopts.wal = options.wal;
      mopts.wal_tenant = k;
      rec.report = execute_migration(view, ri.at_grant, ri.target, plan,
                                     ri.granted_at, mopts);
      rec.granted = true;
      rec.granted_at = ri.granted_at;
      rec.finish_time = ri.granted_at + rec.report.migration_seconds;
      p.done = true;
      report.grant_order.push_back(k);
      last_activity = std::max(last_activity, rec.finish_time);
      if (options.policy == SchedulerPolicy::kFairShare)
        consumed[static_cast<std::size_t>(k)] += grant_cost(k);

      InFlight f;
      f.tenant = k;
      f.finish = rec.finish_time;
      f.peak = journal_peaks(rec.report.events, ri.at_grant, m);
      f.final_mapping = rec.report.final_mapping;
      inflight.push_back(std::move(f));

      if (timeline != nullptr) {
        const std::string label = obs::tenant_label(k);
        timeline->series("tenant.queue_wait", label)
            .record(ri.granted_at, ri.granted_at - p.request.request_time);
        timeline->series("tenant.grant_attempts", label)
            .record(ri.granted_at, static_cast<double>(ri.attempts));
      }
      if (elog != nullptr) {
        elog->emit(ri.granted_at, obs::EventSeverity::kInfo, "scheduler",
                   "grant",
                   {obs::field("tenant", k),
                    obs::field("queue_wait",
                               ri.granted_at - p.request.request_time),
                    obs::field("attempts", ri.attempts),
                    obs::field("migration_seconds",
                               rec.report.migration_seconds)});
      }
      if (options.wal != nullptr) {
        recover::SchedFinishRecord fin;
        fin.tenant = k;
        fin.granted_at = ri.granted_at;
        fin.finish_time = rec.finish_time;
        fin.migration_seconds = rec.report.migration_seconds;
        fin.queue_wait = ri.granted_at - p.request.request_time;
        fin.attempts = ri.attempts;
        fin.final_mapping = rec.report.final_mapping;
        options.wal->append(recover::WalRecordType::kSchedFinish,
                            rec.finish_time,
                            recover::encode_sched_finish(fin));
        options.wal->sync();
      }
    }
  }

  while (true) {
    bool any_pending = false;
    Seconds t_grant = kInf;
    for (const PendingRequest& p : pending) {
      if (p.done) continue;
      any_pending = true;
      t_grant = std::min(t_grant, eligible_at(p));
    }
    if (!any_pending && inflight.empty()) break;

    Seconds t_finish = kInf;
    for (const InFlight& f : inflight) t_finish = std::min(t_finish, f.finish);

    const bool slot_free =
        static_cast<int>(inflight.size()) < options.max_concurrent;
    Seconds t = (any_pending && slot_free) ? std::min(t_grant, t_finish)
                                           : t_finish;
    if (t == kInf) t = t_grant;  // nothing in flight, pending only
    now = std::max(now, t);
    retire_until(now);
    if (!any_pending) continue;
    if (static_cast<int>(inflight.size()) >= options.max_concurrent) continue;

    // Pick among requests eligible now by the policy's total order.
    int pick = -1;
    const auto better = [&](const PendingRequest& a, const PendingRequest& b) {
      switch (options.policy) {
        case SchedulerPolicy::kFifo:
          if (a.request.request_time != b.request.request_time)
            return a.request.request_time < b.request.request_time;
          break;
        case SchedulerPolicy::kSeverity:
          if (a.request.severity != b.request.severity)
            return a.request.severity > b.request.severity;
          break;
        case SchedulerPolicy::kFairShare: {
          const double ta = tokens_at(a.request.tenant, now);
          const double tb = tokens_at(b.request.tenant, now);
          if (ta != tb) return ta > tb;
          if (a.request.severity != b.request.severity)
            return a.request.severity > b.request.severity;
          break;
        }
      }
      return a.request.tenant < b.request.tenant;
    };
    for (int i = 0; i < static_cast<int>(pending.size()); ++i) {
      PendingRequest& p = pending[static_cast<std::size_t>(i)];
      if (p.done || eligible_at(p) > now) continue;
      if (pick == -1 || better(p, pending[static_cast<std::size_t>(pick)]))
        pick = i;
    }
    if (pick == -1) continue;  // eligible instant is later; loop advances

    PendingRequest& p = pending[static_cast<std::size_t>(pick)];
    const int k = p.request.tenant;
    Tenant& tenant = substrate.tenants[static_cast<std::size_t>(k)];
    TenantRecovery& rec = report.recoveries[p.slot];
    p.attempts += 1;
    rec.attempts = p.attempts;
    last_activity = std::max(last_activity, now);

    // Conservative capacity view: shared capacity minus every other
    // tenant's committed residents, minus every in-flight tenant's peak
    // charge. The tenant's own residents stay included (the remap core
    // validates its current mapping against the view).
    mapping::MappingProblem view = tenant.problem;
    view.capacities = substrate.site_capacities;
    for (int j = 0; j < substrate.num_tenants(); ++j) {
      if (j == k) continue;
      bool in_flight = false;
      for (const InFlight& f : inflight) {
        if (f.tenant == j) {
          in_flight = true;
          for (std::size_t s = 0; s < view.capacities.size(); ++s)
            view.capacities[s] -= f.peak[s];
          break;
        }
      }
      if (in_flight) continue;
      for (const SiteId s :
           substrate.tenants[static_cast<std::size_t>(j)].mapping) {
        view.capacities[static_cast<std::size_t>(s)] -= 1;
      }
    }

    try {
      const core::RemapResult remap = core::remap_on_outage(
          view, tenant.mapping, plan, failed_site, now, options.remap);

      if (options.wal != nullptr) {
        // Write-ahead of the decision: the full redo inputs (at-grant
        // mapping, remap target, capacity view) are durable before the
        // migration touches anything, so recovery can re-execute this
        // grant deterministically from the record alone.
        recover::SchedGrantRecord g;
        g.tenant = k;
        g.granted_at = now;
        g.attempts = p.attempts;
        g.current = tenant.mapping;
        g.target = remap.mapping;
        g.view_capacities.assign(view.capacities.begin(),
                                 view.capacities.end());
        options.wal->append(recover::WalRecordType::kSchedGrant, now,
                            recover::encode_sched_grant(g));
        options.wal->sync();
      }

      migrate::MigrationOptions mopts = options.migrate;
      mopts.record_events = true;
      mopts.collector = options.collector;
      if (options.collector != nullptr)
        mopts.timeline_label_prefix = obs::tenant_label(k) + ":";
      mopts.wal = options.wal;
      mopts.wal_tenant = k;
      // The executor gets the *view* (failed site's capacity intact —
      // residents legitimately still live there while leaving), not the
      // remap's rebuilt problem, which zeroes it.
      rec.report = execute_migration(view, tenant.mapping, remap.mapping,
                                     plan, now, mopts);
      rec.granted = true;
      rec.granted_at = now;
      rec.finish_time = now + rec.report.migration_seconds;
      p.done = true;
      report.grant_order.push_back(k);
      last_activity = std::max(last_activity, rec.finish_time);
      if (options.policy == SchedulerPolicy::kFairShare)
        consumed[static_cast<std::size_t>(k)] += grant_cost(k);

      InFlight f;
      f.tenant = k;
      f.finish = rec.finish_time;
      f.peak = journal_peaks(rec.report.events, tenant.mapping, m);
      f.final_mapping = rec.report.final_mapping;
      inflight.push_back(std::move(f));

      if (timeline != nullptr) {
        const std::string label = obs::tenant_label(k);
        timeline->series("tenant.queue_wait", label)
            .record(now, now - p.request.request_time);
        timeline->series("tenant.grant_attempts", label)
            .record(now, static_cast<double>(p.attempts));
      }
      if (elog != nullptr) {
        elog->emit(now, obs::EventSeverity::kInfo, "scheduler", "grant",
                   {obs::field("tenant", k),
                    obs::field("queue_wait", now - p.request.request_time),
                    obs::field("attempts", p.attempts),
                    obs::field("migration_seconds",
                               rec.report.migration_seconds)});
      }
      if (options.wal != nullptr) {
        recover::SchedFinishRecord fin;
        fin.tenant = k;
        fin.granted_at = now;
        fin.finish_time = rec.finish_time;
        fin.migration_seconds = rec.report.migration_seconds;
        fin.queue_wait = now - p.request.request_time;
        fin.attempts = p.attempts;
        fin.final_mapping = rec.report.final_mapping;
        options.wal->append(recover::WalRecordType::kSchedFinish,
                            rec.finish_time,
                            recover::encode_sched_finish(fin));
        options.wal->sync();
      }
    } catch (const core::RemapInfeasible&) {
      if (p.attempts >= options.retry.max_attempts) {
        p.done = true;
        rec.gave_up = true;
        report.gave_up += 1;
        if (options.collector != nullptr)
          options.collector->metrics().counter("tenant.gave_up").add();
        if (elog != nullptr) {
          elog->emit(now, obs::EventSeverity::kError, "scheduler", "give_up",
                     {obs::field("tenant", k),
                      obs::field("attempts", p.attempts)});
        }
        if (options.wal != nullptr) {
          recover::SchedGiveUpRecord gu;
          gu.tenant = k;
          gu.t = now;
          gu.attempts = p.attempts;
          options.wal->append(recover::WalRecordType::kSchedGiveUp, now,
                              recover::encode_sched_give_up(gu));
          options.wal->sync();
        }
      } else {
        p.next_eligible = now + options.retry.backoff(p.attempts);
        report.requeues += 1;
        if (options.collector != nullptr)
          options.collector->metrics().counter("tenant.requeues").add();
        if (elog != nullptr) {
          elog->emit(now, obs::EventSeverity::kWarn, "scheduler", "requeue",
                     {obs::field("tenant", k),
                      obs::field("attempts", p.attempts),
                      obs::field("next_eligible", p.next_eligible)});
        }
        if (options.wal != nullptr) {
          recover::SchedRequeueRecord rq;
          rq.tenant = k;
          rq.t = now;
          rq.attempts = p.attempts;
          rq.next_eligible = p.next_eligible;
          options.wal->append(recover::WalRecordType::kSchedRequeue, now,
                              recover::encode_sched_requeue(rq));
          options.wal->sync();
        }
      }
    }
  }

  report.storm_drain_seconds = last_activity - t0;
  return report;
}

}  // namespace geomap::tenancy

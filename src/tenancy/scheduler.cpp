#include "tenancy/scheduler.h"

#include <algorithm>
#include <limits>
#include <set>
#include <string>

#include "common/error.h"
#include "obs/collector.h"
#include "recover/records.h"
#include "recover/recovery.h"
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
                            const recover::RecoveredControlPlane* resume) {
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
  // A crashed predecessor's durable sched_request records must be a
  // prefix of the (deterministically recomputed) request list.
  const std::size_t durable = resume != nullptr ? resume->requests.size() : 0;
  GEOMAP_CHECK_ARG(durable <= requests.size(),
                   "WAL holds " << durable << " remap requests, the "
                                << "recomputed case produces only "
                                << requests.size());
  for (std::size_t i = 0; i < durable; ++i) {
    GEOMAP_CHECK_ARG(resume->requests[i].tenant == requests[i].tenant,
                     "WAL request " << i << " names tenant "
                                    << resume->requests[i].tenant
                                    << ", recomputed case expects "
                                    << requests[i].tenant);
  }
  if (pending.empty()) return report;

  obs::TimeSeriesRegistry* timeline =
      options.collector != nullptr ? &options.collector->timeline() : nullptr;
  obs::EventLog* elog =
      options.collector != nullptr ? &options.collector->events() : nullptr;
  // The durable requests are neither logged nor announced again:
  // recovery re-emits their queue events from the WAL, in order.
  std::vector<recover::SchedRequestRecord> queued;
  for (std::size_t i = durable; i < requests.size(); ++i) {
    queued.push_back(
        {requests[i].tenant, requests[i].request_time, requests[i].severity});
  }
  if (options.wal != nullptr && !queued.empty()) {
    for (const recover::SchedRequestRecord& r : queued) {
      options.wal->append(recover::WalRecordType::kSchedRequest,
                          r.request_time, recover::encode_sched_request(r));
    }
    options.wal->sync();
  }
  if (elog != nullptr) {
    for (const recover::SchedRequestRecord& r : queued)
      recover::emit_sched_request(*elog, r);
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

  // The ledger halves of the three outcomes of a grant attempt: what a
  // durable record replays after a crash, and what the live attempt
  // books before it announces the record and logs it. They are the only
  // writers of a request's outcome and of last_activity.
  const auto book_requeue = [&](PendingRequest& p,
                                const recover::SchedRequeueRecord& rq) {
    p.attempts = rq.attempts;
    p.next_eligible = rq.next_eligible;
    report.recoveries[p.slot].attempts = rq.attempts;
    last_activity = std::max(last_activity, rq.t);
    report.requeues += 1;
    if (options.collector != nullptr)
      options.collector->metrics().counter("tenant.requeues").add();
  };
  const auto book_give_up = [&](PendingRequest& p,
                                const recover::SchedGiveUpRecord& gu) {
    TenantRecovery& rec = report.recoveries[p.slot];
    p.attempts = gu.attempts;
    p.done = true;
    rec.attempts = gu.attempts;
    rec.gave_up = true;
    last_activity = std::max(last_activity, gu.t);
    report.gave_up += 1;
    if (options.collector != nullptr)
      options.collector->metrics().counter("tenant.gave_up").add();
  };
  // A grant at `at` of the migration from `at_grant`: its outcome, the
  // grant order, the fair-share spend, the in-flight capacity charge
  // until its finish (retire_until then commits the final mapping) and
  // the tenant.* series.
  const auto book_grant = [&](PendingRequest& p, Seconds at,
                              const Mapping& at_grant,
                              migrate::MigrationReport migration)
      -> const TenantRecovery& {
    const int k = p.request.tenant;
    TenantRecovery& rec = report.recoveries[p.slot];
    rec.attempts = p.attempts;
    rec.granted = true;
    rec.granted_at = at;
    rec.report = std::move(migration);
    rec.finish_time = at + rec.report.migration_seconds;
    p.done = true;
    report.grant_order.push_back(k);
    last_activity = std::max(last_activity, rec.finish_time);
    if (options.policy == SchedulerPolicy::kFairShare)
      consumed[static_cast<std::size_t>(k)] += grant_cost(k);

    InFlight f;
    f.tenant = k;
    f.finish = rec.finish_time;
    f.peak = journal_peaks(rec.report.events, at_grant, m);
    f.final_mapping = rec.report.final_mapping;
    inflight.push_back(std::move(f));

    if (timeline != nullptr) {
      const std::string label = obs::tenant_label(k);
      timeline->series("tenant.queue_wait", label)
          .record(at, at - p.request.request_time);
      timeline->series("tenant.grant_attempts", label)
          .record(at, static_cast<double>(p.attempts));
    }
    return rec;
  };
  // The grant step, live or redone after a crash: execute the migration
  // toward `target` under the capacity view, book it, announce it and
  // close it in the WAL. The executor gets the *view* (failed site's
  // capacity intact — residents legitimately still live there while
  // leaving), not the remap's rebuilt problem, which zeroes it.
  const auto grant = [&](PendingRequest& p, Seconds at,
                         const mapping::MappingProblem& view,
                         const Mapping& at_grant, const Mapping& target) {
    const int k = p.request.tenant;
    migrate::MigrationOptions mopts = options.migrate;
    mopts.collector = options.collector;
    if (options.collector != nullptr)
      mopts.timeline_label_prefix = obs::tenant_label(k) + ":";
    mopts.wal = options.wal;
    mopts.wal_tenant = k;
    const TenantRecovery& rec =
        book_grant(p, at, at_grant,
                   execute_migration(view, at_grant, target, plan, at, mopts));
    recover::SchedFinishRecord fin;
    fin.tenant = k;
    fin.granted_at = at;
    fin.finish_time = rec.finish_time;
    fin.migration_seconds = rec.report.migration_seconds;
    fin.queue_wait = at - p.request.request_time;
    fin.attempts = p.attempts;
    fin.final_mapping = rec.report.final_mapping;
    if (elog != nullptr) recover::emit_sched_finish(*elog, fin);
    if (options.wal != nullptr) {
      options.wal->append(recover::WalRecordType::kSchedFinish,
                          rec.finish_time, recover::encode_sched_finish(fin));
      options.wal->sync();
    }
  };

  if (resume != nullptr) {
    const auto pending_of = [&](int tenant) -> PendingRequest& {
      for (PendingRequest& p : pending) {
        if (p.request.tenant == tenant) return p;
      }
      GEOMAP_CHECK_ARG(false, "WAL names tenant " << tenant
                                                  << " that filed no request");
      return pending.front();  // unreachable
    };
    // A requeue pending at the crash keeps its backoff timer at the
    // recorded instant, so it fires exactly once after recovery.
    for (const recover::SchedRequeueRecord& rq : resume->requeues)
      book_requeue(pending_of(rq.tenant), rq);
    for (const recover::SchedGiveUpRecord& gu : resume->give_ups)
      book_give_up(pending_of(gu.tenant), gu);
    // Finished grants replay into the ledgers, in grant order, without
    // re-executing their migrations, so the remaining queue sees exactly
    // the occupancy the uninterrupted run would have at every instant.
    for (const recover::RecoveredGrant& g : resume->grants) {
      if (!g.finished) continue;
      PendingRequest& p = pending_of(g.grant.tenant);
      p.attempts = g.grant.attempts;
      migrate::MigrationReport migration = recover::rebuild_migration_report(
          g.migs, g.grant.current, g.grant.target, g.grant.granted_at,
          g.finish.finish_time);
      // The finish record is authoritative where the journal alone is
      // lossy (idle grants, rounding).
      migration.migration_seconds = g.finish.migration_seconds;
      migration.final_mapping = g.finish.final_mapping;
      book_grant(p, g.grant.granted_at, g.grant.current, std::move(migration));
    }
    // The interrupted grant is redone idempotently from its durable
    // sched_grant record: same grant instant, attempt count, capacity
    // view and remap target. The executor is deterministic, so the redone
    // journal extends the durable prefix instead of double-committing.
    // No new sched_grant record is written; the finish record and the
    // streamed grant event land now.
    if (resume->has_interrupted) {
      const recover::SchedGrantRecord& g = resume->grants.back().grant;
      PendingRequest& p = pending_of(g.tenant);
      GEOMAP_CHECK_ARG(!p.done, "WAL holds an open grant for tenant "
                                    << g.tenant
                                    << " whose request is already closed");
      p.attempts = g.attempts;
      now = std::max(now, g.granted_at);
      mapping::MappingProblem view =
          substrate.tenants[static_cast<std::size_t>(g.tenant)].problem;
      view.capacities.clear();
      for (const double c : g.view_capacities)
        view.capacities.push_back(static_cast<int>(c));
      grant(p, g.granted_at, view, g.current, g.target);
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
    p.attempts += 1;

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
      grant(p, now, view, tenant.mapping, remap.mapping);
    } catch (const core::RemapInfeasible&) {
      if (p.attempts >= options.retry.max_attempts) {
        const recover::SchedGiveUpRecord gu{k, now, p.attempts};
        book_give_up(p, gu);
        if (elog != nullptr) recover::emit_sched_give_up(*elog, gu);
        if (options.wal != nullptr) {
          options.wal->append(recover::WalRecordType::kSchedGiveUp, now,
                              recover::encode_sched_give_up(gu));
          options.wal->sync();
        }
      } else {
        const recover::SchedRequeueRecord rq{
            k, now, p.attempts, now + options.retry.backoff(p.attempts)};
        book_requeue(p, rq);
        if (elog != nullptr) recover::emit_sched_requeue(*elog, rq);
        if (options.wal != nullptr) {
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

#pragma once
// The multi-tenant contention replay as it stood before sim/netsim.cpp
// folded both contention replays into one engine, kept as that engine's
// differential oracle. It is its own discrete-event loop: pending flows
// ordered by (ready, tenant, process, edge), an outage stall per edge or
// the force-through path past a permanent outage, every observation
// recorded straight into the collector as it happens, and no
// critical-path run.

#include <algorithm>
#include <queue>
#include <string>
#include <vector>

#include "common/error.h"
#include "obs/collector.h"
#include "sim/netsim.h"

namespace geomap::testutil {

inline sim::MultiTenantReplayResult oracle_replay_multitenant(
    const std::vector<sim::TenantFlow>& tenants,
    const fault::DegradedNetworkModel& model,
    const sim::MultiTenantReplayOptions& options = {}) {
  const int m = model.num_sites();
  GEOMAP_CHECK_ARG(options.force_timeout > 0,
                   "force_timeout must be positive, got "
                       << options.force_timeout);
  GEOMAP_CHECK_ARG(options.rounds >= 1,
                   "rounds must be >= 1, got " << options.rounds);
  for (std::size_t k = 0; k < tenants.size(); ++k) {
    const sim::TenantFlow& t = tenants[k];
    GEOMAP_CHECK_ARG(t.comm != nullptr && t.mapping != nullptr,
                     "tenant " << k << " has a null comm matrix or mapping");
    GEOMAP_CHECK_ARG(
        static_cast<int>(t.mapping->size()) == t.comm->num_processes(),
        "tenant " << k << " mapping size " << t.mapping->size()
                  << " != " << t.comm->num_processes() << " processes");
    for (const SiteId s : *t.mapping)
      GEOMAP_CHECK_ARG(s >= 0 && s < m,
                       "tenant " << k << " maps a process to invalid site "
                                 << s);
  }
  const fault::FaultPlan& plan = model.plan();
  const Seconds start_time = options.start_time;

  obs::Span replay_span;
  obs::Phase replay_phase;
  obs::Counter* edges_replayed = nullptr;
  obs::Counter* forced_edges = nullptr;
  obs::Histogram* queue_stalls = nullptr;
  obs::TimeSeriesRegistry* timeline = nullptr;
  if (options.collector != nullptr) {
    replay_span = options.collector->tracer().span(options.label, "sim");
    replay_phase = options.collector->profile().phase(
        std::string("replay-multitenant:") + options.label);
    std::size_t tenant_bytes = 0;
    std::uint64_t tenant_edges = 0;
    for (const sim::TenantFlow& t : tenants) {
      tenant_bytes += t.comm->memory_bytes();
      tenant_edges += t.comm->nnz();
    }
    options.collector->mem().note("tenancy.comm", tenant_bytes);
    replay_phase.count("edges",
                       tenant_edges * static_cast<std::uint64_t>(options.rounds));
    edges_replayed =
        &options.collector->metrics().counter("sim.mt_edges_replayed");
    forced_edges =
        &options.collector->metrics().counter("sim.mt_forced_edges");
    queue_stalls = &options.collector->metrics().histogram(
        "sim.mt_contention_stall_seconds");
    timeline = &options.collector->timeline();
  }
  std::vector<obs::TimeSeries*> tl_latency(
      timeline != nullptr ? static_cast<std::size_t>(m) * m : 0, nullptr);
  std::vector<obs::TimeSeries*> tl_timeout(
      timeline != nullptr ? static_cast<std::size_t>(m) * m : 0, nullptr);

  std::vector<Seconds> link_free(static_cast<std::size_t>(m) * m, start_time);
  std::vector<Seconds> link_busy(static_cast<std::size_t>(m) * m, 0.0);

  struct Pending {
    Seconds ready;
    int tenant;
    ProcessId proc;
    std::size_t edge;
    bool operator>(const Pending& other) const {
      if (ready != other.ready) return ready > other.ready;
      if (tenant != other.tenant) return tenant > other.tenant;
      if (proc != other.proc) return proc > other.proc;
      return edge > other.edge;
    }
  };
  std::priority_queue<Pending, std::vector<Pending>, std::greater<Pending>> q;
  for (std::size_t k = 0; k < tenants.size(); ++k) {
    const trace::CommMatrix& comm = *tenants[k].comm;
    for (ProcessId i = 0; i < comm.num_processes(); ++i) {
      if (comm.row(i).size() > 0)
        q.push(Pending{start_time, static_cast<int>(k), i, 0});
    }
  }

  sim::MultiTenantReplayResult result;
  result.tenants.resize(tenants.size());
  while (!q.empty()) {
    const Pending p = q.top();
    q.pop();
    const sim::TenantFlow& tenant = tenants[static_cast<std::size_t>(p.tenant)];
    sim::TenantReplayResult& tres =
        result.tenants[static_cast<std::size_t>(p.tenant)];
    const trace::CommMatrix::Row row = tenant.comm->row(p.proc);
    // p.edge counts total issues across rounds; the CSR edge repeats.
    const std::size_t e = p.edge % row.size();
    const SiteId src = (*tenant.mapping)[static_cast<std::size_t>(p.proc)];
    const SiteId dst =
        (*tenant.mapping)[static_cast<std::size_t>(row.dst[e])];

    Seconds stalled = sim::outage_clear_time(plan, src, dst, p.ready);
    bool forced = false;
    if (stalled == fault::kNoEnd) {
      GEOMAP_CHECK_MSG(options.force_through,
                       "multi-tenant replay crosses a permanent outage on link "
                           << src << "->" << dst
                           << " with force_through disabled — remap first");
      forced = true;
      stalled = p.ready + options.force_timeout;
    }
    Seconds start = stalled;
    const std::size_t link =
        static_cast<std::size_t>(src) * m + static_cast<std::size_t>(dst);
    if (src != dst) {
      if (link_free[link] > start && queue_stalls != nullptr)
        queue_stalls->record(link_free[link] - start);
      start = std::max(start, link_free[link]);
    }
    const Seconds healthy =
        model.base().message_cost(src, dst, row.count[e], row.volume[e]);
    const Seconds wire =
        forced ? healthy
               : model.message_cost(src, dst, row.count[e], row.volume[e],
                                    start);
    tres.total_transfer_seconds += wire;
    const Seconds end = start + wire;
    if (src != dst) {
      link_free[link] = end;
      link_busy[link] += wire;
    }
    tres.makespan = std::max(tres.makespan, end - start_time);
    if (forced) tres.forced_edges += 1;
    if (edges_replayed != nullptr) edges_replayed->add();
    if (forced && forced_edges != nullptr) forced_edges->add();
    if (timeline != nullptr) {
      if (forced) {
        obs::TimeSeries*& series = tl_timeout[link];
        if (series == nullptr) {
          series =
              &timeline->series("link.timeout", obs::link_label(src, dst));
        }
        series->record(stalled, 1.0);
      } else if (src != dst) {
        obs::TimeSeries*& series = tl_latency[link];
        if (series == nullptr) {
          series = &timeline->series("link.latency_ratio",
                                     obs::link_label(src, dst));
        }
        if (healthy > 0) series->record(start, wire / healthy);
      }
    }

    if (p.edge + 1 < row.size() * static_cast<std::size_t>(options.rounds))
      q.push(Pending{end, p.tenant, p.proc, p.edge + 1});
  }
  for (const sim::TenantReplayResult& t : result.tenants)
    result.makespan = std::max(result.makespan, t.makespan);
  result.busiest_link_seconds =
      link_busy.empty() ? 0.0
                        : *std::max_element(link_busy.begin(), link_busy.end());
  return result;
}

}  // namespace geomap::testutil

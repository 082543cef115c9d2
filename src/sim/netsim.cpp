#include "sim/netsim.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "mapping/cost.h"
#include "mapping/metrics.h"
#include "obs/collector.h"

namespace geomap::sim {

Seconds alpha_beta_cost(const trace::CommMatrix& comm,
                        const net::NetworkModel& model,
                        const Mapping& mapping) {
  GEOMAP_CHECK_MSG(static_cast<int>(mapping.size()) == comm.num_processes(),
                   "mapping size mismatch");
  Seconds total = 0;
  for (ProcessId i = 0; i < comm.num_processes(); ++i) {
    const SiteId si = mapping[static_cast<std::size_t>(i)];
    const trace::CommMatrix::Row row = comm.row(i);
    for (std::size_t k = 0; k < row.size(); ++k) {
      const SiteId sj = mapping[static_cast<std::size_t>(row.dst[k])];
      total += model.message_cost(si, sj, row.count[k], row.volume[k]);
    }
  }
  return total;
}

namespace {

// The healthy alpha/beta split of one CSR edge: `count` messages of total
// `volume` on ordered link (src, dst), serialized as count·LT + volume/BT.
struct AlphaBeta {
  Seconds alpha = 0;
  Seconds beta = 0;
};
AlphaBeta alpha_beta(const net::NetworkModel& model, SiteId src, SiteId dst,
                     double count, Bytes volume) {
  return {count * model.latency(src, dst), volume / model.bandwidth(src, dst)};
}

// One edge's serialized wire time as priced at its start, and its healthy
// alpha + beta price. Fault-aware pricing inflates `wire` above `healthy`;
// the engine records their ratio as the link's latency ratio.
struct WirePrice {
  Seconds wire = 0;
  Seconds healthy = 0;
};

// When an edge issued at some time may start, and whether it is forced
// through a permanent outage of one of its endpoints.
struct Stall {
  Seconds until = 0;
  bool forced = false;
};

// Where a planned edge runs: its ordered site pair (sites lie in
// [0, 2^31), so 31 bits hold one), and whether it is the last edge of its
// process's row.
struct PlanSites {
  std::uint32_t src = 0;
  std::uint32_t dst : 31 = 0;
  std::uint32_t last : 1 = 0;
};

// The network a replay's edges cross. `plan` makes an edge's plan record
// from its sites, count and volume; `stall` may push an edge's issue time
// forward; `price` prices a planned edge as of its start time; `base` is
// the healthy model the critical-path recorder splits alpha from beta by.
//
// Healthy: no stalls, and prices that do not depend on time, so the plan
// holds each edge's wire price, 16 bytes an edge.
struct HealthyNetwork {
  struct Edge {
    Seconds wire = 0;
    PlanSites sites;
  };
  const net::NetworkModel& model;

  const net::NetworkModel& base() const { return model; }
  Edge plan(PlanSites sites, double count, Bytes volume) const {
    const AlphaBeta p = alpha_beta(model, static_cast<SiteId>(sites.src),
                                   static_cast<SiteId>(sites.dst), count,
                                   volume);
    return {p.alpha + p.beta, sites};
  }
  Stall stall(SiteId, SiteId, Seconds t) const { return Stall{t, false}; }
  WirePrice price(const Edge& e, Seconds /*t*/, bool /*forced*/) const {
    return {e.wire, e.wire};
  }
};

// Faulted: an edge waits until both endpoints are up, and an unbounded
// wait throws unless `force_through`, which delivers the edge
// `force_timeout` later. Prices are degraded as of the start time, with
// the healthy split from the base model; a forced edge is priced healthy
// (its wire time through a dead endpoint is unobservable, and the
// timeout is the signal). The plan keeps each edge's count and volume.
struct FaultedNetwork {
  struct Edge {
    double count = 0;
    Bytes volume = 0;
    PlanSites sites;
  };
  const fault::DegradedNetworkModel& model;
  bool force_through = false;
  Seconds force_timeout = 0;

  const net::NetworkModel& base() const { return model.base(); }
  Edge plan(PlanSites sites, double count, Bytes volume) const {
    return {count, volume, sites};
  }
  Stall stall(SiteId src, SiteId dst, Seconds t) const {
    const Seconds up = outage_clear_time(model.plan(), src, dst, t);
    if (up != fault::kNoEnd) return Stall{up, false};
    GEOMAP_CHECK_MSG(force_through, "replay crosses a permanent outage on link "
                                        << src << "->" << dst
                                        << " — remap before replaying");
    return Stall{t + force_timeout, true};
  }
  WirePrice price(const Edge& e, Seconds t, bool forced) const {
    const auto src = static_cast<SiteId>(e.sites.src);
    const auto dst = static_cast<SiteId>(e.sites.dst);
    const AlphaBeta p = alpha_beta(model.base(), src, dst, e.count, e.volume);
    const Seconds healthy = p.alpha + p.beta;
    return {forced ? healthy
                   : model.message_cost(src, dst, e.count, e.volume, t),
            healthy};
  }
};

// What one replay records; a null member records nothing. `timeline`
// takes per-link `link.latency_ratio` and `link.timeout` series, `crit`
// a single-tenant replay's happened-before DAG as one run.
struct Recorders {
  obs::Counter* edges = nullptr;
  obs::Counter* forced_edges = nullptr;
  obs::Histogram* contention_stalls = nullptr;
  obs::Histogram* outage_stalls = nullptr;
  obs::TimeSeriesRegistry* timeline = nullptr;
  obs::CritGraph* crit = nullptr;
  int crit_run = -1;
};

// Throws InvalidArgument unless every tenant has a comm matrix and a
// mapping of matching size onto sites in [0, m).
void check_tenants(std::span<const TenantFlow> tenants, int m) {
  for (std::size_t k = 0; k < tenants.size(); ++k) {
    const TenantFlow& t = tenants[k];
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
}

// Issue times as unsigned integers that sort as the times do: the sign
// bit set for non-negative times, every bit flipped for negative ones
// (-0.0 reads back as +0.0, which it equals).
constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
std::uint64_t time_bits(Seconds t) {
  const auto u = std::bit_cast<std::uint64_t>(t + 0.0);
  return (u & kSignBit) != 0 ? ~u : u | kSignBit;
}
Seconds bits_time(std::uint64_t b) {
  return std::bit_cast<Seconds>((b & kSignBit) != 0 ? b & ~kSignBit : ~b);
}

// A pending edge as one integer that sorts in the replay's total order
// (issue time, tenant, process, edge): time_bits(issue time) << 64 |
// flat process << 32 | plan cursor. The flat process is the tenant's
// first flat process plus the process id, so it sorts as (tenant,
// process); the cursor indexes the plan, where a row's edges sit in row
// order.
using EventKey = unsigned __int128;
EventKey event_key(Seconds t, std::uint32_t flat_process,
                   std::uint32_t cursor) {
  return EventKey{time_bits(t)} << 64 | EventKey{flat_process} << 32 | cursor;
}

// Edges waiting to issue, one per process, popped smallest key first. A
// process has at most one pending edge, so keys never tie, and any correct
// heap pops the same sequence. replace_top pops and pushes in one pass
// down from the root: an issued edge is usually replaced by its process's
// next one.
class PendingQueue {
 public:
  explicit PendingQueue(std::size_t capacity) { heap_.reserve(capacity); }
  bool empty() const { return heap_.empty(); }
  EventKey top() const { return heap_.front(); }
  // The top once the top is popped, or replaced by a key no smaller than
  // this: the smaller child of the root, or the top when it is alone.
  EventKey runner_up() const {
    return heap_.size() < 3 ? heap_.back() : std::min(heap_[1], heap_[2]);
  }
  void push(EventKey k) {
    heap_.push_back(k);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
  void pop() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
  }
  void replace_top(EventKey k) {
    std::size_t i = 0;
    for (std::size_t c = 1; c < heap_.size(); i = c, c = 2 * c + 1) {
      if (c + 1 < heap_.size() && heap_[c] > heap_[c + 1]) ++c;
      if (k <= heap_[c]) break;
      heap_[i] = heap_[c];
    }
    heap_[i] = k;
  }

 private:
  std::vector<EventKey> heap_;
};

// The discrete-event link engine behind every contention replay. Each
// process of each tenant issues its CSR row `rounds` times in row order;
// every tenant's inter-site edges serialize on one shared set of ordered
// site-pair links. Each event reads one record of a plan built up front:
// every tenant's CSR edges in row order, each with its ordered site pair
// and what `Network` prices it from. Only the critical-path recorder reads
// the CSR again. A fault-free replay instantiates the engine with
// HealthyNetwork and pays no fault-plan lookup. Callers check the tenants
// first.
template <typename Network>
MultiTenantReplayResult replay_engine(std::span<const TenantFlow> tenants,
                                      const Network& net, Seconds start_time,
                                      int rounds, const Recorders& rec) {
  const int m = net.model.num_sites();
  const std::size_t links = static_cast<std::size_t>(m) * m;
  // Stall and link observations wait here and are recorded in batches.
  // Every sink receives the same values in the same order as recording
  // each one as it happens (see record_many), at a fraction of the
  // locking cost; at most kBatch wait at once, so a long replay never
  // holds all of its points. A link's series is created with its first
  // point.
  constexpr std::size_t kBatch = 4096;
  std::vector<double> contention_stalls;
  std::vector<double> outage_stalls;
  // Latency ratios at [link], timeouts at [links + link].
  std::vector<std::vector<obs::TimePoint>> points(
      rec.timeline != nullptr ? 2 * links : 0);
  std::vector<obs::TimeSeries*> series(points.size(), nullptr);
  std::size_t buffered = 0;
  const auto flush = [&] {
    if (rec.contention_stalls != nullptr)
      rec.contention_stalls->record_many(contention_stalls);
    if (rec.outage_stalls != nullptr)
      rec.outage_stalls->record_many(outage_stalls);
    contention_stalls.clear();
    outage_stalls.clear();
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (points[i].empty()) continue;
      if (series[i] == nullptr) {
        const auto src = static_cast<SiteId>(i % links / m);
        const auto dst = static_cast<SiteId>(i % links % m);
        series[i] = &rec.timeline->series(
            i < links ? "link.latency_ratio" : "link.timeout",
            obs::link_label(src, dst));
      }
      series[i]->record_many(points[i]);
      points[i].clear();
    }
    buffered = 0;
  };
  const auto buffer = [&](auto& buf, auto x) {
    buf.push_back(x);
    if (++buffered == kBatch) flush();
  };
  // Per ordered inter-site pair: time the link frees up, and its busy time.
  std::vector<Seconds> link_free(links, start_time);
  std::vector<Seconds> link_busy(links, 0.0);
  // Critical-path bookkeeping (one tenant): last event of each process
  // chain and the event currently occupying each link (-1 until recorded).
  std::vector<std::int64_t> proc_last;
  std::vector<std::int64_t> link_last;
  if (rec.crit != nullptr) {
    proc_last.assign(static_cast<std::size_t>(tenants[0].comm->num_processes()),
                     -1);
    link_last.assign(links, -1);
  }

  std::size_t processes = 0;
  std::uint64_t total_edges = 0;
  for (const TenantFlow& t : tenants) {
    processes += static_cast<std::size_t>(t.comm->num_processes());
    total_edges += t.comm->nnz();
  }
  constexpr std::uint64_t kKeyField = std::uint64_t{1} << 32;
  GEOMAP_CHECK_ARG(processes < kKeyField && total_edges < kKeyField,
                   "cannot replay " << processes << " processes and "
                                    << total_edges
                                    << " edges: event keys index fewer "
                                       "than 2^32 of each");
  // The plan, and per flat process where its row starts (one past the
  // end last) and whose process it is.
  std::vector<typename Network::Edge> plan;
  plan.reserve(total_edges);
  std::vector<std::uint32_t> row_first;
  row_first.reserve(processes + 1);
  std::vector<std::uint32_t> tenant_of;
  tenant_of.reserve(processes);
  for (std::size_t k = 0; k < tenants.size(); ++k) {
    const trace::CommMatrix& comm = *tenants[k].comm;
    const Mapping& mapping = *tenants[k].mapping;
    for (ProcessId i = 0; i < comm.num_processes(); ++i) {
      row_first.push_back(static_cast<std::uint32_t>(plan.size()));
      tenant_of.push_back(static_cast<std::uint32_t>(k));
      const trace::CommMatrix::Row row = comm.row(i);
      const auto src =
          static_cast<std::uint32_t>(mapping[static_cast<std::size_t>(i)]);
      for (std::size_t e = 0; e < row.size(); ++e) {
        const auto dst = static_cast<std::uint32_t>(
            mapping[static_cast<std::size_t>(row.dst[e])]);
        plan.push_back(net.plan(PlanSites{src, dst, e + 1 == row.size()},
                                row.count[e], row.volume[e]));
      }
    }
  }
  row_first.push_back(static_cast<std::uint32_t>(plan.size()));
  // Rows each flat process has finished.
  std::vector<std::uint32_t> rows_done(processes, 0);

  PendingQueue q(processes);
  for (std::uint32_t fp = 0; fp < processes; ++fp) {
    if (row_first[fp] < row_first[fp + 1])
      q.push(event_key(start_time, fp, row_first[fp]));
  }

  MultiTenantReplayResult result;
  result.tenants.resize(tenants.size());
  while (!q.empty()) {
    const EventKey key = q.top();
    const Seconds ready = bits_time(static_cast<std::uint64_t>(key >> 64));
    const auto fp = static_cast<std::uint32_t>(key >> 32);
    const auto cursor = static_cast<std::uint32_t>(key);
    const typename Network::Edge& edge = plan[cursor];
    // The next event most likely reads the runner-up's record, which
    // nothing has touched since that process last issued, about one event
    // per pending process ago: start the load while this event runs.
    __builtin_prefetch(&plan[static_cast<std::uint32_t>(q.runner_up())]);
    TenantReplayResult& out = result.tenants[tenant_of[fp]];
    const auto src = static_cast<SiteId>(edge.sites.src);
    const auto dst = static_cast<SiteId>(edge.sites.dst);
    const std::size_t link =
        static_cast<std::size_t>(src) * m + static_cast<std::size_t>(dst);

    const Stall stall = net.stall(src, dst, ready);
    if (rec.outage_stalls != nullptr && stall.until > ready)
      buffer(outage_stalls, stall.until - ready);
    Seconds start = stall.until;
    std::int64_t link_pred = -1;
    if (src != dst && link_free[link] > start) {
      if (rec.contention_stalls != nullptr)
        buffer(contention_stalls, link_free[link] - start);
      if (rec.crit != nullptr) link_pred = link_last[link];
      start = link_free[link];
    }
    const WirePrice price = net.price(edge, start, stall.forced);
    out.total_transfer_seconds += price.wire;
    const Seconds end = start + price.wire;
    if (src != dst) {
      link_free[link] = end;
      link_busy[link] += price.wire;
    }
    out.makespan = std::max(out.makespan, end - start_time);
    if (stall.forced) out.forced_edges += 1;
    if (rec.timeline != nullptr) {
      // Priced wire over the healthy alpha-beta price (1.0 on an
      // unfaulted link), the runtime's wire-inflation signal. A forced
      // edge records a timeout instead, intra-site edges too: a dead
      // site's local traffic timing out is the strongest down signal the
      // detector can get.
      if (stall.forced)
        buffer(points[links + link], obs::TimePoint{stall.until, 1.0});
      else if (src != dst && price.healthy > 0)
        buffer(points[link],
               obs::TimePoint{start, price.wire / price.healthy});
    }
    if (rec.crit != nullptr) {
      // One tenant, so the flat process is the process and the plan
      // cursor the CSR index.
      const auto proc = static_cast<ProcessId>(fp);
      const std::size_t seq = cursor - row_first[fp];
      const trace::CommMatrix::Row row = tenants[0].comm->row(proc);
      const AlphaBeta split = alpha_beta(net.base(), src, dst, row.count[seq],
                                         row.volume[seq]);
      obs::CritEvent e;
      e.id = rec.crit->next_id();
      e.run = rec.crit_run;
      e.seq = static_cast<std::int64_t>(seq);
      e.kind = "edge";
      e.rank = proc;
      e.peer = row.dst[seq];
      e.src_site = src;
      e.dst_site = dst;
      e.messages = row.count[seq];
      e.bytes = row.volume[seq];
      e.ready = ready;
      e.start = start;
      e.end = end;
      e.alpha_seconds = split.alpha;
      e.beta_seconds = split.beta;
      // Outage stall plus fault-inflated wire excess over the healthy
      // alpha-beta price; link queueing is the contention component.
      // Subtracting the re-formed sum (not alpha then beta) keeps the
      // fault-free replay — where wire *is* fl(alpha + beta) — at an
      // exact zero instead of a rounding residue.
      e.fault_stall_seconds = (stall.until - ready) +
                              (price.wire - (split.alpha + split.beta));
      e.contention_stall_seconds = start - stall.until;
      e.pred_program = proc_last[static_cast<std::size_t>(proc)];
      e.pred_link = link_pred;
      proc_last[static_cast<std::size_t>(proc)] = e.id;
      if (src != dst) link_last[link] = e.id;
      rec.crit->add(std::move(e));
    }

    std::uint32_t next = cursor + 1;
    if (edge.sites.last) {
      if (++rows_done[fp] == static_cast<std::uint32_t>(rounds)) {
        q.pop();
        continue;
      }
      next = row_first[fp];
    }
    q.replace_top(event_key(end, fp, next));
  }
  flush();
  if (rec.edges != nullptr)
    rec.edges->add(total_edges * static_cast<std::uint64_t>(rounds));
  std::uint64_t forced_edges = 0;
  for (const TenantReplayResult& t : result.tenants) {
    result.makespan = std::max(result.makespan, t.makespan);
    forced_edges += static_cast<std::uint64_t>(t.forced_edges);
  }
  if (rec.forced_edges != nullptr) rec.forced_edges->add(forced_edges);
  result.busiest_link_seconds =
      link_busy.empty() ? 0.0
                        : *std::max_element(link_busy.begin(), link_busy.end());
  return result;
}

// One tenant, one round, recorded as both replay_with_contention
// overloads record it: the "sim/replay" wall span, the `replay:<label>`
// phase, sim.* counters and stall histograms, the link series and one
// critical-path run.
template <typename Network>
ContentionResult replay_one(const trace::CommMatrix& comm,
                            const Mapping& mapping, const Network& net,
                            Seconds start_time, obs::Collector* collector,
                            const char* label) {
  const TenantFlow tenant[] = {{&comm, &mapping}};
  check_tenants(tenant, net.model.num_sites());
  obs::Span span;
  obs::Phase phase;
  Recorders rec;
  if (collector != nullptr) {
    span = collector->tracer().span("sim/replay", "sim");
    phase = collector->profile().phase(std::string("replay:") + label);
    phase.count("edges", comm.nnz());
    collector->mem().note("comm.csr", comm.memory_bytes());
    rec.edges = &collector->metrics().counter("sim.edges_replayed");
    rec.contention_stalls =
        &collector->metrics().histogram("sim.contention_stall_seconds");
    rec.outage_stalls =
        &collector->metrics().histogram("sim.outage_stall_seconds");
    // Per-edge event recording is a forensic recorder; `crit` stays null
    // (and the event loop skips it) unless the artifact was asked for.
    if (collector->critpath_enabled()) {
      rec.crit = &collector->critpath();
      rec.crit_run = rec.crit->begin_run(label, start_time);
    }
    rec.timeline = &collector->timeline();
  }
  const MultiTenantReplayResult r =
      replay_engine(tenant, net, start_time, 1, rec);
  return {r.makespan, r.busiest_link_seconds,
          r.tenants[0].total_transfer_seconds};
}

}  // namespace

ContentionResult replay_with_contention(const trace::CommMatrix& comm,
                                        const net::NetworkModel& model,
                                        const Mapping& mapping,
                                        obs::Collector* collector,
                                        const char* label) {
  return replay_one(comm, mapping, HealthyNetwork{model}, 0.0, collector,
                    label);
}

ContentionResult replay_with_contention(
    const trace::CommMatrix& comm, const fault::DegradedNetworkModel& model,
    const Mapping& mapping, Seconds start_time, obs::Collector* collector,
    const char* label) {
  // Without fault events nothing stalls and every price is the base
  // model's, bit for bit. Permanent outages cannot be replayed through:
  // callers remap the dead site away first.
  if (model.plan().empty())
    return replay_one(comm, mapping, HealthyNetwork{model.base()}, start_time,
                      collector, label);
  return replay_one(comm, mapping, FaultedNetwork{model}, start_time,
                    collector, label);
}

MultiTenantReplayResult replay_multitenant(
    const std::vector<TenantFlow>& tenants,
    const fault::DegradedNetworkModel& model,
    const MultiTenantReplayOptions& options) {
  GEOMAP_CHECK_ARG(options.force_timeout > 0,
                   "force_timeout must be positive, got "
                       << options.force_timeout);
  GEOMAP_CHECK_ARG(options.rounds >= 1,
                   "rounds must be >= 1, got " << options.rounds);
  check_tenants(tenants, model.num_sites());

  // No critical-path run: its per-edge events would be recorded into
  // every caller's collector, throwaway ones included.
  obs::Span span;
  obs::Phase phase;
  Recorders rec;
  if (options.collector != nullptr) {
    span = options.collector->tracer().span(options.label, "sim");
    phase = options.collector->profile().phase(
        std::string("replay-multitenant:") + options.label);
    std::size_t tenant_bytes = 0;
    std::uint64_t tenant_edges = 0;
    for (const TenantFlow& t : tenants) {
      tenant_bytes += t.comm->memory_bytes();
      tenant_edges += t.comm->nnz();
    }
    options.collector->mem().note("tenancy.comm", tenant_bytes);
    phase.count("edges",
                tenant_edges * static_cast<std::uint64_t>(options.rounds));
    obs::MetricsRegistry& metrics = options.collector->metrics();
    rec.edges = &metrics.counter("sim.mt_edges_replayed");
    rec.forced_edges = &metrics.counter("sim.mt_forced_edges");
    rec.contention_stalls =
        &metrics.histogram("sim.mt_contention_stall_seconds");
    rec.timeline = &options.collector->timeline();
  }
  // Without fault events nothing stalls and no edge is forced through.
  if (model.plan().empty())
    return replay_engine(tenants, HealthyNetwork{model.base()},
                         options.start_time, options.rounds, rec);
  return replay_engine(
      tenants,
      FaultedNetwork{model, options.force_through, options.force_timeout},
      options.start_time, options.rounds, rec);
}

Seconds outage_clear_time(const fault::FaultPlan& plan, SiteId src, SiteId dst,
                          Seconds t) {
  Seconds up = t;
  for (int guard = 0; guard < 64; ++guard) {
    const Seconds src_up = plan.next_site_up(src, up);
    if (src_up == fault::kNoEnd) return fault::kNoEnd;
    const Seconds dst_up = plan.next_site_up(dst, src_up);
    if (dst_up == fault::kNoEnd) return fault::kNoEnd;
    if (dst_up == up) return up;
    up = dst_up;
  }
  GEOMAP_CHECK_MSG(false, "alternating outages of sites "
                              << src << " and " << dst
                              << " did not converge after 64 iterations");
  return up;  // unreachable
}

double comm_improvement_percent(const trace::CommMatrix& comm,
                                const net::NetworkModel& model,
                                const Mapping& baseline,
                                const Mapping& mapping) {
  const Seconds base = alpha_beta_cost(comm, model, baseline);
  const Seconds ours = alpha_beta_cost(comm, model, mapping);
  return mapping::improvement_percent(base, ours);
}

}  // namespace geomap::sim

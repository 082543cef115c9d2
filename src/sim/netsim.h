#pragma once
// Network simulation (the paper's ns-2 substitute, Section 5.4).
//
// Two estimators of an application's communication time under a mapping:
//
//  * alpha_beta_cost — the paper's own cost model, Equation (2)/(3): the
//    sum over process pairs of AG·LT + CG/BT. This is what the paper's
//    simulation results normalize and compare.
//
//  * the contention replay — one discrete-event engine behind
//    replay_with_contention (one application) and replay_multitenant
//    (many sharing the substrate). Each ordered site pair is a
//    serializing link of bandwidth BT: each process issues its messages
//    in pattern order, messages queue on busy links, and the makespan is
//    the last completion. Pending messages are served in the total order
//    (issue time, tenant, process, edge index); a single-tenant replay is
//    tenant 0, so processes that issue at the same time (every process
//    at the start) reach a shared link in process-id order, and results
//    are a pure function of the inputs. This adds the congestion effect
//    the analytic sum ignores and serves as a robustness check:
//    improvements should keep their ordering under contention.
//
// How the engine runs. Before the first event it builds a plan: every
// tenant's CSR edges, tenant after tenant, in row order, each with its
// ordered site pair, whether it ends its row, and what its network
// prices it from. A healthy network stores the edge's wire price, which
// does not depend on time (16 bytes an edge); a network with faults
// stores its count and volume. A process numbers its tenant's first
// flat process plus its own id, so flat processes sort as (tenant,
// process). Each process has at most one pending edge, kept as one
// unsigned 128-bit key: the issue time's order-preserving bits << 64 |
// flat process << 32 | plan index. Keys never tie, and comparing them
// as integers is the total order above, so any correct heap pops the
// same sequence. An event reads one plan record; only the critical-path
// recorder reads the CSR again. A replay holds fewer than 2^32 flat
// processes and fewer than 2^32 edges. A fault-aware replay whose plan
// has no events runs the healthy instance: nothing stalls, and every
// price is the base model's, bit for bit.

#include "common/types.h"
#include "fault/degraded_network.h"
#include "mapping/problem.h"
#include "net/network_model.h"
#include "trace/comm_matrix.h"

namespace geomap::obs {
class Collector;
}

namespace geomap::sim {

/// Paper Equation (2): total alpha-beta communication cost of `mapping`.
Seconds alpha_beta_cost(const trace::CommMatrix& comm,
                        const net::NetworkModel& model, const Mapping& mapping);

struct ContentionResult {
  /// Last message completion over all processes.
  Seconds makespan = 0;
  /// Busy time of the most loaded inter-site link.
  Seconds busiest_link_seconds = 0;
  /// Sum of per-message latencies+transfer: alpha_beta_cost up to
  /// summation order (the replay adds in pop order, alpha_beta_cost in
  /// row order), so the two agree to rounding, not bit for bit.
  Seconds total_transfer_seconds = 0;
};

/// Event-driven replay with per-site-pair link serialization. Messages of
/// one source process issue sequentially in CSR row order; intra-site
/// traffic uses the (infinite-parallelism) intra link and never queues.
/// Throws InvalidArgument unless `mapping` places every process on a
/// site of `model`. `collector` (opt-in, not owned) wraps the replay in a
/// wall span, records edge counts plus contention-stall histograms, and
/// records the replay's happened-before DAG as one critical-path run
/// named `label` (see obs/critpath.h); nullptr replays the exact
/// uninstrumented path with bit-identical results.
ContentionResult replay_with_contention(const trace::CommMatrix& comm,
                                        const net::NetworkModel& model,
                                        const Mapping& mapping,
                                        obs::Collector* collector = nullptr,
                                        const char* label = "sim/replay");

/// Fault-aware replay: the same engine, but every edge's wire time is
/// evaluated under `model`'s fault plan as of the edge's virtual issue
/// time (`start_time` offsets the whole replay into the plan's
/// schedule), so analytic estimates stay comparable with the runtime's
/// degraded executions. Edges issuing while an endpoint site is out
/// stall until the outage ends; a permanent outage in the replayed
/// window throws Error — remap first (core/remap.h), then replay the
/// surviving mapping. Per-message loss is not modeled here: CSR edges
/// aggregate many messages, so loss shows up only in the runtime's
/// accounting. The returned makespan is the replay *duration* (last
/// completion minus start_time). An empty plan replays as the fault-free
/// overload does; with start_time 0 it reproduces it bit-for-bit.
ContentionResult replay_with_contention(const trace::CommMatrix& comm,
                                        const fault::DegradedNetworkModel& model,
                                        const Mapping& mapping,
                                        Seconds start_time = 0,
                                        obs::Collector* collector = nullptr,
                                        const char* label = "sim/replay");

// ---------------------------------------------------------------------------
// Multi-tenant replay: K independent jobs sharing one substrate
//
// A geo-distributed substrate hosts many applications: each tenant has
// its own communication graph and mapping, but the ordered site-pair
// links are shared, so one tenant's burst queues behind another's. The
// multi-tenant replay runs the same engine over all tenants' flows at
// once, in the same total order, so identical inputs produce
// bit-identical per-tenant results regardless of tenant count or host
// scheduling.

/// One tenant's workload on the shared substrate (non-owning; both must
/// outlive the replay call).
struct TenantFlow {
  const trace::CommMatrix* comm = nullptr;
  const Mapping* mapping = nullptr;
};

struct MultiTenantReplayOptions {
  /// Virtual time the replay (and the fault plan's schedule) starts at.
  Seconds start_time = 0;

  /// Times each process re-issues its edge list (an iterative
  /// application's rounds). One round often completes before a
  /// mid-horizon fault even starts; an observation run sizes this so
  /// traffic spans the chaos horizon and the detector sees post-outage
  /// telemetry.
  int rounds = 1;

  /// Permanent-outage semantics. The single-tenant fault-aware replay
  /// throws when an edge would wait forever; a multi-tenant observation
  /// run must instead keep going so the detector gets telemetry from
  /// *after* the death. With force_through, an edge whose endpoints never
  /// come back up is delivered after `force_timeout` extra virtual
  /// seconds (the runtime's retry-exhaustion semantics) and a
  /// `link.timeout` point is recorded — exactly the down signal the
  /// degradation detector keys on.
  bool force_through = true;
  Seconds force_timeout = 2.0;

  /// Observability (opt-in, not owned): `link.latency_ratio` and
  /// `link.timeout` per-link series on the shared timeline plus
  /// sim.mt_* counters. nullptr replays the exact uninstrumented path
  /// with bit-identical results.
  obs::Collector* collector = nullptr;
  const char* label = "sim/multitenant";
};

/// Per-tenant view of a shared replay.
struct TenantReplayResult {
  /// Last completion of this tenant's flows minus start_time.
  Seconds makespan = 0;
  Seconds total_transfer_seconds = 0;
  /// Edges delivered by the force-through path (0 on healthy runs).
  int forced_edges = 0;
};

struct MultiTenantReplayResult {
  std::vector<TenantReplayResult> tenants;
  /// Max over tenants.
  Seconds makespan = 0;
  Seconds busiest_link_seconds = 0;
};

/// Replay every tenant's traffic concurrently on the shared serializing
/// links under `model`'s fault plan. Bit-reproducible: identical inputs
/// give identical results across runs and machines. A one-tenant call
/// with one round is replay_with_contention: the same makespan, busiest
/// link and total_transfer_seconds, bit for bit. Records no
/// critical-path run. Throws InvalidArgument on malformed tenants or
/// 2^32 or more processes or edges in all, and Error when an edge
/// crosses a permanent outage with force_through disabled. A model whose
/// plan has no events replays the healthy network, with the same results.
MultiTenantReplayResult replay_multitenant(
    const std::vector<TenantFlow>& tenants,
    const fault::DegradedNetworkModel& model,
    const MultiTenantReplayOptions& options = {});

/// Earliest time >= t at which *both* endpoint sites of ordered link
/// (src, dst) are simultaneously up under `plan`; fault::kNoEnd when a
/// permanent outage makes the wait unbounded. Shared by the fault-aware
/// replay (which treats kNoEnd as an error — remap first) and the
/// migration executor (which parks the flow and replans instead).
Seconds outage_clear_time(const fault::FaultPlan& plan, SiteId src, SiteId dst,
                          Seconds t);

/// Communication improvement of `mapping` over `baseline` in percent,
/// under the alpha-beta model.
double comm_improvement_percent(const trace::CommMatrix& comm,
                                const net::NetworkModel& model,
                                const Mapping& baseline,
                                const Mapping& mapping);

}  // namespace geomap::sim

// map_large_n and map_many_sites: the mapping pipeline end to end.
//
//   edge list -> CommMatrix::Builder::build -> Calibrator::calibrate ->
//   GeoDistMapper::map -> validate          (primary_s, "map_s")
//   CostEvaluator::total_cost + sim::replay_with_contention
//                                           (followup_s, "evaluate_s")
//
// Set-up and the evaluation are single-threaded, so setup_s and
// followup_s are rescaled by the reference kernel that runs right after
// each set-up and each iteration's evaluations (see Reference); the map
// call runs on the worker pool and primary_s stays raw.
//
// The two workloads differ only in shape: map_large_n is N-heavy (LU,
// N = 2^17, 4 AWS regions, 4! orders), map_many_sites is order-search-
// heavy (K-means, N = 4096, 64 synthetic sites, kappa = 6, 6! orders).

#include <cmath>
#include <memory>

#include "apps/app.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/geodist_mapper.h"
#include "core/grouping.h"
#include "fault/degraded_network.h"
#include "fault/fault_plan.h"
#include "mapping/cost.h"
#include "mapping/metrics.h"
#include "mapping/problem.h"
#include "mapping/random_mapper.h"
#include "net/calibration.h"
#include "net/cloud.h"
#include "sim/netsim.h"
#include "trace/comm_matrix.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace geomap;

struct MapShape {
  const char* app;
  int ranks;
  /// 0 selects the paper's 4-region AWS deployment; otherwise the
  /// synthetic world of this many sites. The world is fixed, like the
  /// AWS one: the run seed draws the pattern's volumes and the pins, so
  /// runs differ in input without one world's geography dominating.
  int sites;
  int kappa;
  /// Evaluations per map call, so the evaluation median rests on more
  /// samples than the map median; the evaluation is the noisier of the
  /// two and costs a third of a map call or less.
  int evaluations;
};

MapShape shape_of(const std::string& workload) {
  if (workload == "map_large_n") return {"LU", 1 << 17, 0, 4, 2};
  return {"K-means", 4096, 64, 6, 5};
}

constexpr double kConstraintRatio = 0.2;
constexpr int kSetupRepeats = 3;
constexpr int kBaselineDraws = 10;
constexpr int kMinIterations = 3;

/// Everything the pipeline starts from: the pattern as a flat edge list,
/// the deployment, and the pinned processes.
struct MapInputs {
  int ranks = 0;
  std::vector<trace::CommEdge> edges;
  std::unique_ptr<net::CloudTopology> topo;
  ConstraintVector constraints;
};

MapInputs make_inputs(const MapShape& shape, std::uint64_t seed) {
  const apps::App& app = apps::app_by_name(shape.app);
  apps::AppConfig config = app.default_config(shape.ranks);
  config.seed = seed;
  MapInputs in;
  in.ranks = shape.ranks;
  in.edges = app.synthetic_pattern(shape.ranks, config).edges();
  in.topo = std::make_unique<net::CloudTopology>(
      shape.sites == 0
          ? net::aws_experiment_profile(shape.ranks / 4)
          : net::synthetic_profile(shape.sites, shape.ranks / shape.sites));
  Rng rng(seed);
  in.constraints = mapping::make_random_constraints(
      shape.ranks, in.topo->capacities(), kConstraintRatio, rng);
  return in;
}

struct MapCall {
  mapping::MappingProblem problem;
  Mapping mapping;
  bool valid = false;
  int orders = 0;
  double wall_s = 0;
  double map_cpu_s = 0;
};

MapCall map_once(const MapInputs& in, int kappa, Tracer& tr) {
  MapCall call;
  Tracer::Scope root(&tr, "map_s");
  const double t0 = now_s();
  {
    Tracer::Scope span(&tr, "trace.csr_build_s");
    trace::CommMatrix::Builder builder(in.ranks);
    for (const trace::CommEdge& e : in.edges)
      builder.add_message(e.src, e.dst, e.volume, e.count);
    call.problem.comm = builder.build();
  }
  {
    Tracer::Scope span(&tr, "net.calibrate_s");
    call.problem.network = net::Calibrator().calibrate(*in.topo).model;
  }
  call.problem.capacities = in.topo->capacities();
  call.problem.site_coords = in.topo->coordinates();
  call.problem.constraints = in.constraints;
  call.problem.validate();
  {
    Tracer::Scope span(&tr, "core.map_call_s");
    core::GeoDistOptions opts;
    opts.kappa = kappa;
    core::GeoDistMapper mapper(opts);
    const double cpu0 = cpu_seconds();
    call.mapping = mapper.map(call.problem);
    call.map_cpu_s = cpu_seconds() - cpu0;
    call.orders = mapper.last_orders_evaluated();
  }
  {
    Tracer::Scope span(&tr, "mapping.validate_s");
    call.valid = mapping::is_feasible(call.problem, call.mapping);
  }
  call.wall_s = now_s() - t0;
  return call;
}

struct Evaluation {
  Seconds cost = 0;
  sim::ContentionResult replay;
  double wall_s = 0;
};

Evaluation evaluate(const mapping::MappingProblem& problem,
                    const Mapping& mapped, Tracer& tr) {
  Evaluation ev;
  Tracer::Scope root(&tr, "evaluate_s");
  const double t0 = now_s();
  {
    Tracer::Scope span(&tr, "mapping.total_cost_s");
    ev.cost = mapping::CostEvaluator(problem).total_cost(mapped);
  }
  {
    Tracer::Scope span(&tr, "sim.replay_s");
    ev.replay = sim::replay_with_contention(problem.comm, problem.network,
                                            mapped);
  }
  ev.wall_s = now_s() - t0;
  return ev;
}

/// Per-layer calls the pipeline makes only inside map() (grouping, one
/// fill) or not at all (the multi-tenant replay engine on this one job),
/// timed separately on the last call's problem.
void probe_layers(const MapCall& call, const Evaluation& ev, int kappa,
                  Result& res, Tracer& tr) {
  const mapping::MappingProblem& p = call.problem;
  const int m = p.num_sites();
  core::Grouping grouping;
  for (int r = 0; r < 5; ++r) {
    Tracer::Scope span(&tr, "core.group_s");
    grouping = kappa < m ? core::group_sites(p.site_coords, kappa)
                         : core::singleton_groups(m);
  }
  std::vector<GroupId> order(static_cast<std::size_t>(grouping.num_groups));
  for (std::size_t g = 0; g < order.size(); ++g)
    order[g] = static_cast<GroupId>(g);
  for (int r = 0; r < 3; ++r) {
    Tracer::Scope span(&tr, "core.fill_s");
    const Mapping filled = core::fill_for_order(
        p, grouping, order, core::GeoDistOptions::FillEngine::kHeap);
    res.op(mapping::is_feasible(p, filled), "fill_for_order is infeasible");
  }
  const fault::FaultPlan no_faults;
  const fault::DegradedNetworkModel healthy(p.network, no_faults);
  sim::MultiTenantReplayResult mt;
  {
    Tracer::Scope span(&tr, "sim.mt_replay_s");
    mt = sim::replay_multitenant({sim::TenantFlow{&p.comm, &call.mapping}},
                                 healthy);
  }
  // A fault-free single-tenant shared replay prices every edge exactly as
  // the single-tenant replay does; only the summation order may differ.
  const double single = ev.replay.total_transfer_seconds;
  res.op(std::abs(mt.tenants.front().total_transfer_seconds - single) <=
             1e-9 * single,
         "multi-tenant replay disagrees with replay_with_contention");
}

}  // namespace

Result run_map_workload(const RunOptions& options, Tracer& tr) {
  const MapShape shape = shape_of(options.workload);
  Result res;

  Reference kernel;
  std::vector<double> setup, setup_ref;
  MapInputs in;
  for (int r = 0; r < kSetupRepeats; ++r) {
    in = MapInputs{};
    const double t0 = now_s();
    in = make_inputs(shape, options.seed);
    setup.push_back(now_s() - t0);
    setup_ref.push_back(kernel.time(res));
  }

  // Warm-up call (untimed): pays first-touch page faults and worker-pool
  // start-up, and is the reference every timed call must reproduce.
  Tracer off(false);
  Mapping reference;
  Seconds reference_cost = 0;
  double baseline_cost = 0;
  {
    const MapCall warm = map_once(in, shape.kappa, off);
    res.op(warm.valid, "warm-up mapping fails validate_mapping");
    const mapping::CostEvaluator eval(warm.problem);
    reference = warm.mapping;
    reference_cost = eval.total_cost(reference);
    Rng rng(options.seed + 1);
    for (int d = 0; d < kBaselineDraws; ++d)
      baseline_cost +=
          eval.total_cost(mapping::RandomMapper::draw(warm.problem, rng));
    baseline_cost /= kBaselineDraws;
  }

  std::vector<double> map_s, evaluate_s, map_cpu_s, evaluate_ref;
  MapCall last;
  Evaluation last_ev;
  const double start = now_s();
  for (int it = 0; it < kMinIterations || now_s() - start < options.seconds;
       ++it) {
    last = MapCall{};  // release the previous CSR before building the next
    // The kernel rescales the previous iteration's evaluations. It runs
    // once the CSR is released, so its memory stays below the peak.
    if (it > 0) evaluate_ref.push_back(kernel.time(res));
    last = map_once(in, shape.kappa, tr);
    res.op(last.valid, "mapping fails validate_mapping");
    res.op(last.mapping == reference,
           "repeated map call returned a different mapping");
    for (int e = 0; e < shape.evaluations; ++e) {
      last_ev = evaluate(last.problem, last.mapping, tr);
      res.op(last_ev.cost == reference_cost,
             "repeated evaluation returned a different cost");
      evaluate_s.push_back(last_ev.wall_s);
    }
    map_s.push_back(last.wall_s);
    map_cpu_s.push_back(last.map_cpu_s);
  }
  const std::vector<double> evaluate_rescaled = Reference::rescaled(
      evaluate_s, evaluate_ref, static_cast<std::size_t>(shape.evaluations));

  const double improvement =
      mapping::improvement_percent(baseline_cost, reference_cost);
  res.named = {{"setup_s", median(setup)},
               {"map_s", median(map_s)},
               {"evaluate_s", median(evaluate_s)},
               {"reference_s", median(kernel.times())},
               {"improvement_pct", improvement},
               {"replay_makespan_s", last_ev.replay.makespan}};
  res.end_to_end = {{"setup_s",
                     median(Reference::rescaled(setup, setup_ref))},
                    {"primary_s", median(map_s)},
                    {"followup_s", median(evaluate_rescaled)},
                    {"cost_ratio", reference_cost / baseline_cost}};
  res.samples = {
      {"setup_s", setup},
      {"map_s", map_s},
      {"evaluate_s", evaluate_s},
      {"reference_s", kernel.times()}};
  res.refold = {{"map_s",
                 {"trace.csr_build_s", "net.calibrate_s", "core.map_call_s",
                  "mapping.validate_s"}},
                {"evaluate_s", {"mapping.total_cost_s", "sim.replay_s"}}};

  if (!tr.enabled()) return res;
  probe_layers(last, last_ev, shape.kappa, res, tr);
  const double nnz = static_cast<double>(last.problem.comm.nnz());
  const double map_call_s = tr.median_duration("core.map_call_s");
  const double cpu_s = median(map_cpu_s);
  const double fill_s = tr.median_duration("core.fill_s");
  const double total_cost_s = tr.median_duration("mapping.total_cost_s");
  const double replay_s = tr.median_duration("sim.replay_s");
  res.per_layer = {
      {"trace.csr_build_s", tr.median_duration("trace.csr_build_s")},
      {"trace.nnz", nnz},
      {"trace.csr_bytes_per_nnz",
       static_cast<double>(last.problem.comm.memory_bytes()) / nnz},
      {"net.calibrate_s", tr.median_duration("net.calibrate_s")},
      {"core.group_s", tr.median_duration("core.group_s")},
      {"core.map_call_s", map_call_s},
      {"core.map_cpu_s", cpu_s},
      {"core.parallel_efficiency",
       cpu_s / (map_call_s * static_cast<double>(parallel_workers()))},
      {"core.orders_evaluated", last.orders},
      {"core.fill_s", fill_s},
      {"core.fill_cpu_share", (last.orders + 1) * fill_s / cpu_s},
      {"mapping.validate_s", tr.median_duration("mapping.validate_s")},
      {"mapping.total_cost_s", total_cost_s},
      {"mapping.cost_nnz_per_s", nnz / total_cost_s},
      {"sim.replay_s", replay_s},
      {"sim.replay_edges_per_s", nnz / replay_s},
      {"sim.mt_replay_s", tr.median_duration("sim.mt_replay_s")},
  };
  return res;
}

}  // namespace perfbench

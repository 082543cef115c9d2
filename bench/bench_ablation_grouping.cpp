// Ablation (ours, motivated by paper Section 4.2): what the grouping
// optimization and the kappa! order search each contribute. Sweeps kappa
// on an 11-region deployment and toggles the order search, reporting
// solution quality (improvement over Baseline) and optimization
// overhead. Without grouping, the order search over M! = 11! site
// orders would be infeasible — exactly the blow-up grouping prevents.

#include <iostream>

#include "bench_util.h"
#include "common/cli.h"
#include "common/timer.h"

using namespace geomap;

int main(int argc, char** argv) {
  CliParser cli("Ablation: grouping optimization and order search");
  cli.add_int("ranks", 88, "number of processes (11 regions x 8)");
  cli.add_int("seed", 2017, "random seed");
  cli.add_bool("csv", false, "emit CSV");
  bench::ObsSink::add_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  bench::ObsSink obs = bench::ObsSink::parse(cli);

  const int ranks = static_cast<int>(cli.get_int("ranks"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  // All 11 AWS regions — a site count where grouping actually matters.
  const net::CloudTopology topo(
      net::aws2016_profile("m4.xlarge", ranks / 11));
  const net::CalibrationResult calib = net::Calibrator().calibrate(topo);

  const apps::App& app = apps::app_by_name("K-means");
  Rng rng(seed);
  mapping::MappingProblem problem;
  problem.comm = app.synthetic_pattern(ranks, app.default_config(ranks));
  problem.network = calib.model;
  problem.capacities = topo.capacities();
  problem.site_coords = topo.coordinates();
  problem.constraints =
      mapping::make_random_constraints(ranks, problem.capacities, 0.2, rng);
  problem.validate();

  const RunningStats base = bench::baseline_cost_stats(problem, 20, seed + 1);
  const mapping::CostEvaluator eval(problem);

  print_banner(std::cout,
               "Ablation — grouping (kappa sweep) and order search, 11 "
               "regions / K-means");
  Table table({"configuration", "orders evaluated", "improvement (%)",
               "optimize (ms)"});

  auto run_config = [&](const std::string& label, core::GeoDistOptions opts) {
    core::GeoDistMapper mapper(opts);
    mapper.set_collector(obs.collector());
    Timer timer;
    const Mapping m = mapper.map(problem);
    const double ms = timer.elapsed_ms();
    const int orders = mapper.last_orders_evaluated();
    table.row()
        .cell(label)
        .cell(orders > 0 ? std::to_string(orders)
                         : std::string("multi-level"))
        .cell(mapping::improvement_percent(base.mean(), eval.total_cost(m)),
              1)
        .cell(ms, 2);
  };

  for (const int kappa : {1, 2, 3, 4, 5}) {
    core::GeoDistOptions opts;
    opts.kappa = kappa;
    run_config("grouping kappa=" + std::to_string(kappa), opts);
  }
  {
    core::GeoDistOptions opts;
    opts.kappa = 4;
    opts.search_orders = false;
    run_config("kappa=4, order search OFF", opts);
  }
  {
    core::GeoDistOptions opts;
    opts.kappa = 4;
    opts.hierarchical = true;
    run_config("kappa=4, hierarchical recursion", opts);
  }
  {
    // No grouping: 11! is infeasible; show the guard triggers.
    core::GeoDistOptions opts;
    opts.use_grouping = false;
    core::GeoDistMapper mapper(opts);
    try {
      (void)mapper.map(problem);
      table.row().cell("no grouping (11! orders)").cell("-").cell("-").cell(
          "-");
    } catch (const Error&) {
      table.row()
          .cell("no grouping (11! = 39916800 orders)")
          .cell("refused")
          .cell("-")
          .cell("-");
    }
  }
  bench::print_table(table, cli.get_bool("csv"));
  std::cout << "\nReading: quality saturates by kappa ~4 (the paper picks "
               "kappa < 5) while overhead grows kappa!;\nthe order search "
               "adds several points of improvement over a single fixed "
               "order.\n";
  return 0;
}

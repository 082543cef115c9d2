// Paper Figure 4: optimization overhead of Greedy / MPIPP /
// Geo-distributed at different scales ("#sites/#processes" = 1/32, 2/64,
// 4/64, 4/128, 4/256), normalized to Baseline (random mapping). Expected
// shape: MPIPP orders of magnitude above the others and growing fastest;
// Geo-distributed ~Greedy at small site counts; Geo == Greedy at one
// site.

#include <iostream>

#include "bench_util.h"
#include "common/cli.h"
#include "common/timer.h"

using namespace geomap;

namespace {

double time_mapper(mapping::Mapper& mapper,
                   const mapping::MappingProblem& problem, int reps) {
  // Warm-up once, then average.
  (void)mapper.map(problem);
  Timer timer;
  for (int r = 0; r < reps; ++r) (void)mapper.map(problem);
  return timer.elapsed_seconds() / reps;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Figure 4: optimization overhead vs scale");
  cli.add_int("reps", 3, "timing repetitions per algorithm");
  cli.add_int("seed", 2017, "random seed");
  cli.add_bool("csv", false, "emit CSV");
  bench::ObsSink::add_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  bench::ObsSink obs = bench::ObsSink::parse(cli);

  const int reps = static_cast<int>(cli.get_int("reps"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  struct Scale {
    int sites;
    int processes;
  };
  const Scale scales[] = {{1, 32}, {2, 64}, {4, 64}, {4, 128}, {4, 256}};

  print_banner(std::cout,
               "Figure 4 — optimization overhead normalized to Baseline");
  Table table({"sites/processes", "Baseline (ms)", "Greedy (x)", "MPIPP (x)",
               "Geo-distributed (x)"});

  for (const Scale& s : scales) {
    const net::CloudTopology topo(
        net::synthetic_profile(s.sites, s.processes / s.sites, seed));
    const net::NetworkModel model = net::NetworkModel::from_ground_truth(topo);
    // K-means' complex pattern exercises every algorithm's full search.
    const apps::App& app = apps::app_by_name("K-means");
    mapping::MappingProblem problem;
    problem.comm =
        app.synthetic_pattern(s.processes, app.default_config(s.processes));
    problem.network = model;
    problem.capacities = topo.capacities();
    problem.site_coords = topo.coordinates();
    problem.validate();

    mapping::RandomMapper baseline(seed);
    mapping::GreedyMapper greedy;
    mapping::MpippMapper mpipp;
    // Note: an attached collector audits every timed map() call, so the
    // reported Geo overhead then includes the observability tax.
    core::GeoDistMapper geo;
    geo.set_collector(obs.collector());

    const double t_base = time_mapper(baseline, problem, reps);
    const double t_greedy = time_mapper(greedy, problem, reps);
    const double t_mpipp = time_mapper(mpipp, problem, reps);
    const double t_geo = time_mapper(geo, problem, reps);

    table.row()
        .cell(std::to_string(s.sites) + "/" + std::to_string(s.processes))
        .cell(t_base * 1e3, 3)
        .cell(t_greedy / t_base, 1)
        .cell(t_mpipp / t_base, 1)
        .cell(t_geo / t_base, 1);
  }
  bench::print_table(table, cli.get_bool("csv"));
  std::cout << "\nPaper shapes: MPIPP >> Greedy ~ Geo-distributed; Geo == "
               "Greedy-order overhead at 1 site; MPIPP grows\nsuper-linearly "
               "with processes. Absolute Geo overhead stays well under the "
               "paper's 1-minute bound at 4/64.\n";
  return 0;
}

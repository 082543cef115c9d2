// Ablation (ours, motivated by paper Section 3.1): the alpha-beta cost
// model against its crippled variants — latency-only (alpha) and
// bandwidth-only (beta) — plus the paper's Algorithm 1 as written (every
// group order filled from scratch by the O(N^2) loop, the test oracle's
// plain_enumeration) against GeoDistMapper's heap-fill order search.
// Shows both cost terms matter and that the mapper's acceleration is a
// free speedup. Exits 1 when the two ever return different mappings.

#include <iostream>

#include "bench_util.h"
#include "common/cli.h"
#include "common/timer.h"
#include "geodist_fill_oracle.h"

using namespace geomap;

namespace {

/// A network model with one of the alpha-beta terms neutralized.
net::NetworkModel strip_model(const net::NetworkModel& model, bool keep_alpha,
                              bool keep_beta) {
  const auto m = static_cast<std::size_t>(model.num_sites());
  Matrix lat = Matrix::square(m);
  Matrix bw = Matrix::square(m);
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t l = 0; l < m; ++l) {
      lat(k, l) = keep_alpha
                      ? model.latency(static_cast<SiteId>(k),
                                      static_cast<SiteId>(l))
                      : 0.0;
      bw(k, l) = keep_beta ? model.bandwidth(static_cast<SiteId>(k),
                                             static_cast<SiteId>(l))
                           : 1e18;  // effectively infinite
    }
  }
  return net::NetworkModel(std::move(lat), std::move(bw));
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Ablation: cost-model terms and the paper's order search");
  cli.add_int("ranks", 128, "number of processes");
  cli.add_int("seed", 2017, "random seed");
  cli.add_bool("csv", false, "emit CSV");
  bench::ObsSink::add_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  bench::ObsSink obs = bench::ObsSink::parse(cli);

  const int ranks = static_cast<int>(cli.get_int("ranks"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const bench::Ec2Context ctx((ranks + 3) / 4);

  print_banner(std::cout, "Ablation A — optimizing under crippled cost models");
  Table model_table(
      {"app", "optimized under", "true-model improvement (%)"});

  for (const char* app_name : {"LU", "K-means"}) {
    const apps::App& app = apps::app_by_name(app_name);
    mapping::MappingProblem truth;
    truth.comm = app.synthetic_pattern(ranks, app.default_config(ranks));
    truth.network = ctx.calib.model;
    truth.capacities = ctx.topo.capacities();
    truth.site_coords = ctx.topo.coordinates();
    truth.validate();

    const RunningStats base = bench::baseline_cost_stats(truth, 20, seed);
    const mapping::CostEvaluator true_eval(truth);

    struct Variant {
      const char* label;
      bool alpha, beta;
    };
    for (const Variant v : {Variant{"alpha-beta (paper)", true, true},
                            Variant{"latency only (alpha)", true, false},
                            Variant{"bandwidth only (beta)", false, true}}) {
      mapping::MappingProblem crippled = truth;
      crippled.network = strip_model(ctx.calib.model, v.alpha, v.beta);
      core::GeoDistMapper geo;
      const Mapping m = geo.map(crippled);  // optimized under variant
      model_table.row()
          .cell(app_name)
          .cell(v.label)
          .cell(mapping::improvement_percent(base.mean(),
                                             true_eval.total_cost(m)),
                1);
    }
  }
  bench::print_table(model_table, cli.get_bool("csv"));
  std::cout << "\n(On a distance-monotone cloud the variants coincide: "
               "latency and bandwidth rank the site orders\nidentically, and "
               "Algorithm 1's fill is volume-driven — the cost model only "
               "selects the group order.)\n";

  // On an adversarial topology where the high-bandwidth pairs are the
  // high-latency ones (satellite-like links), alpha-only and beta-only
  // order selection disagree and the full model wins.
  print_banner(std::cout,
               "Ablation A' — crippled cost models on a latency-inverted "
               "topology");
  Table inv_table({"app", "optimized under", "true-model improvement (%)"});
  {
    // Invert the latency ranking of the calibrated model.
    const int m = ctx.calib.model.num_sites();
    double lat_min = 1e30, lat_max = 0;
    for (SiteId k = 0; k < m; ++k)
      for (SiteId l = 0; l < m; ++l) {
        if (k == l) continue;
        lat_min = std::min(lat_min, ctx.calib.model.latency(k, l));
        lat_max = std::max(lat_max, ctx.calib.model.latency(k, l));
      }
    Matrix lat = Matrix::square(static_cast<std::size_t>(m));
    Matrix bw = Matrix::square(static_cast<std::size_t>(m));
    for (std::size_t k = 0; k < static_cast<std::size_t>(m); ++k)
      for (std::size_t l = 0; l < static_cast<std::size_t>(m); ++l) {
        const auto sk = static_cast<SiteId>(k);
        const auto sl = static_cast<SiteId>(l);
        bw(k, l) = ctx.calib.model.bandwidth(sk, sl);
        lat(k, l) = k == l ? ctx.calib.model.latency(sk, sl)
                           : (lat_min + lat_max) * 20.0 -
                                 20.0 * ctx.calib.model.latency(sk, sl);
      }
    const net::NetworkModel inverted(std::move(lat), std::move(bw));

    const apps::App& app = apps::app_by_name("DNN");  // latency-sensitive
    mapping::MappingProblem truth;
    truth.comm = app.synthetic_pattern(ranks, app.default_config(ranks));
    truth.network = inverted;
    truth.capacities = ctx.topo.capacities();
    truth.site_coords = ctx.topo.coordinates();
    truth.validate();
    const RunningStats base = bench::baseline_cost_stats(truth, 20, seed);
    const mapping::CostEvaluator true_eval(truth);

    struct Variant {
      const char* label;
      bool alpha, beta;
    };
    for (const Variant v : {Variant{"alpha-beta (paper)", true, true},
                            Variant{"latency only (alpha)", true, false},
                            Variant{"bandwidth only (beta)", false, true}}) {
      mapping::MappingProblem crippled = truth;
      crippled.network = strip_model(inverted, v.alpha, v.beta);
      core::GeoDistMapper geo;
      const Mapping mapped = geo.map(crippled);
      inv_table.row()
          .cell("DNN")
          .cell(v.label)
          .cell(mapping::improvement_percent(base.mean(),
                                             true_eval.total_cost(mapped)),
                1);
    }
  }
  bench::print_table(inv_table, cli.get_bool("csv"));

  print_banner(std::cout,
               "Ablation B — the paper's plain enumeration vs the mapper's "
               "order search (serial)");
  Table fill_table({"processes", "plain enumeration (ms)", "GeoDist (ms)",
                    "speedup", "identical mapping"});
  bool identical = true;
  for (const int n : {64, 256, 1024, 4096}) {
    const net::CloudTopology topo(net::aws_experiment_profile(n / 4));
    const apps::App& app = apps::app_by_name("K-means");
    mapping::MappingProblem problem;
    problem.comm = app.synthetic_pattern(n, app.default_config(n));
    problem.network = net::NetworkModel::from_ground_truth(topo);
    problem.capacities = topo.capacities();
    problem.site_coords = topo.coordinates();
    problem.validate();

    core::GeoDistOptions options;
    options.parallel_orders = false;
    core::GeoDistMapper geo(options);
    Timer t_geo;
    const Mapping m_geo = geo.map(problem);
    const double geo_ms = t_geo.elapsed_ms();
    Timer t_plain;
    const Mapping m_plain = testutil::plain_enumeration(
        problem, geo.last_grouping(), options.search_orders);
    const double plain_ms = t_plain.elapsed_ms();

    const bool same = m_plain == m_geo;
    identical = identical && same;
    fill_table.row()
        .cell(static_cast<long long>(n))
        .cell(plain_ms, 1)
        .cell(geo_ms, 1)
        .cell(plain_ms / geo_ms, 1)
        .cell(same ? "yes" : "NO");
  }
  bench::print_table(fill_table, cli.get_bool("csv"));
  std::cout << "\nReading: dropping either cost term degrades the mapping "
               "the paper's full model finds; the heap-fill\norder search "
               "returns the paper's mapping bit for bit with an "
               "asymptotically growing speedup.\n";
  if (!identical) {
    std::cerr << "Ablation B: the mapper's mapping differs from plain "
                 "enumeration\n";
    return 1;
  }
  return 0;
}

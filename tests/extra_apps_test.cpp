// Tests for the additional NPB-style workloads (CG, MG, FT): numeric
// kernel correctness, app-level convergence / round-trip accuracy on the
// runtime, and the communication-pattern classes they contribute.

#include <gtest/gtest.h>

#include <cmath>
#include <mutex>

#include "apps/app.h"
#include "apps/cg.h"
#include "apps/ft.h"
#include "apps/mg.h"
#include "common/rng.h"
#include "net/cloud.h"
#include "net/network_model.h"
#include "runtime/comm.h"

namespace geomap::apps {
namespace {

runtime::RunResult execute(const App& app, const AppConfig& cfg,
                           double* metric_out = nullptr) {
  const net::CloudTopology topo(
      net::aws_experiment_profile((cfg.num_ranks + 3) / 4));
  const net::NetworkModel model = net::NetworkModel::from_ground_truth(topo);
  Mapping mapping(static_cast<std::size_t>(cfg.num_ranks));
  for (int r = 0; r < cfg.num_ranks; ++r)
    mapping[static_cast<std::size_t>(r)] = r / ((cfg.num_ranks + 3) / 4);
  std::mutex mu;
  runtime::Runtime rt(model, mapping, topo.instance().gflops);
  return rt.run([&](runtime::Comm& comm) {
    const double metric = app.run(comm, cfg);
    if (metric_out != nullptr && comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      *metric_out = metric;
    }
  });
}

// ---------- FFT kernel ----------

TEST(Fft, MatchesDirectDftOnRandomInput) {
  Rng rng(3);
  const std::size_t n = 32;
  std::vector<double> a(2 * n);
  for (auto& v : a) v = rng.uniform(-1, 1);
  std::vector<double> fft = a;
  fft_radix2(fft, false);
  for (std::size_t k = 0; k < n; ++k) {
    double re = 0, im = 0;
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -2.0 * M_PI * static_cast<double>(k * t) /
                           static_cast<double>(n);
      re += a[2 * t] * std::cos(angle) - a[2 * t + 1] * std::sin(angle);
      im += a[2 * t] * std::sin(angle) + a[2 * t + 1] * std::cos(angle);
    }
    EXPECT_NEAR(fft[2 * k], re, 1e-9);
    EXPECT_NEAR(fft[2 * k + 1], im, 1e-9);
  }
}

TEST(Fft, RoundTripIsIdentity) {
  Rng rng(7);
  std::vector<double> a(2 * 128);
  for (auto& v : a) v = rng.uniform(-5, 5);
  std::vector<double> b = a;
  fft_radix2(b, false);
  fft_radix2(b, true);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(b[i], a[i], 1e-10);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<double> a(2 * 12);
  EXPECT_THROW(fft_radix2(a, false), Error);
}

// ---------- app-level behaviour ----------

TEST(ExtraApps, RegistryExposesEightApps) {
  EXPECT_EQ(all_apps().size(), 5u);
  EXPECT_EQ(extended_apps().size(), 8u);
  EXPECT_EQ(app_by_name("CG").name(), "CG");
  EXPECT_EQ(app_by_name("MG").name(), "MG");
  EXPECT_EQ(app_by_name("FT").name(), "FT");
}

TEST(ExtraApps, CgResidualDecreasesWithIterations) {
  const App& cg = app_by_name("CG");
  AppConfig short_cfg = cg.default_config(8);
  short_cfg.iterations = 3;
  AppConfig long_cfg = short_cfg;
  long_cfg.iterations = 20;
  double r_short = 0, r_long = 0;
  execute(cg, short_cfg, &r_short);
  execute(cg, long_cfg, &r_long);
  EXPECT_GT(r_short, 0.0);
  EXPECT_LT(r_long, r_short * 0.5);
}

TEST(ExtraApps, MgResidualDecreasesWithCycles) {
  const App& mg = app_by_name("MG");
  AppConfig short_cfg = mg.default_config(4);
  short_cfg.iterations = 1;
  short_cfg.problem_size = 16;
  AppConfig long_cfg = short_cfg;
  long_cfg.iterations = 6;
  double r_short = 0, r_long = 0;
  execute(mg, short_cfg, &r_short);
  execute(mg, long_cfg, &r_long);
  EXPECT_GT(r_short, 0.0);
  EXPECT_LT(r_long, r_short * 0.5);
}

TEST(ExtraApps, FtRoundTripErrorIsMachinePrecision) {
  const App& ft = app_by_name("FT");
  AppConfig cfg = ft.default_config(8);
  cfg.iterations = 2;
  cfg.problem_size = 64;
  double error = 1.0;
  execute(ft, cfg, &error);
  EXPECT_LT(error, 1e-10);
}

TEST(ExtraApps, RunAtAwkwardRankCounts) {
  for (const char* name : {"CG", "MG", "FT"}) {
    const App& app = app_by_name(name);
    for (const int ranks : {2, 6, 12}) {
      AppConfig cfg = app.default_config(ranks);
      cfg.iterations = 2;
      cfg.problem_size = std::min(cfg.problem_size, 32);
      EXPECT_NO_THROW(execute(app, cfg)) << name << " @" << ranks;
    }
  }
}

TEST(ExtraApps, MetricIndependentOfMapping) {
  // Virtual time changes with the mapping; numeric results must not.
  const net::CloudTopology topo(net::aws_experiment_profile(4));
  const net::NetworkModel model = net::NetworkModel::from_ground_truth(topo);
  for (const char* name : {"CG", "MG", "FT"}) {
    const App& app = app_by_name(name);
    AppConfig cfg = app.default_config(16);
    cfg.iterations = 3;
    cfg.problem_size = std::min(cfg.problem_size, 32);
    auto run_with = [&](const Mapping& m) {
      double metric = 0;
      std::mutex mu;
      runtime::Runtime rt(model, m, topo.instance().gflops);
      rt.run([&](runtime::Comm& c) {
        const double v = app.run(c, cfg);
        if (c.rank() == 0) {
          std::lock_guard<std::mutex> lock(mu);
          metric = v;
        }
      });
      return metric;
    };
    Mapping block(16);
    for (int r = 0; r < 16; ++r) block[static_cast<std::size_t>(r)] = r / 4;
    Mapping cyclic(16);
    for (int r = 0; r < 16; ++r) cyclic[static_cast<std::size_t>(r)] = r % 4;
    EXPECT_NEAR(run_with(block), run_with(cyclic), 1e-12) << name;
  }
}

// ---------- pattern classes ----------

TEST(ExtraPatterns, CgIsMostlyNeighbourWithIrregularTail) {
  const App& cg = app_by_name("CG");
  const trace::CommMatrix m = cg.synthetic_pattern(16, cg.default_config(16));
  // Halo edges exist between consecutive row-block owners...
  EXPECT_GT(m.volume(0, 1), 0.0);
  // ...and the random couplings add pairs beyond +-1 neighbours and the
  // collective trees (r^2^k partners): look for any edge with distance
  // not a power of two.
  bool irregular = false;
  for (const trace::CommEdge& e : m.edges()) {
    const int d = std::abs(e.src - e.dst);
    if (d > 1 && (d & (d - 1)) != 0) irregular = true;
  }
  EXPECT_TRUE(irregular);
}

TEST(ExtraPatterns, MgHasHubTrafficToRankZero) {
  const App& mg = app_by_name("MG");
  const trace::CommMatrix m = mg.synthetic_pattern(16, mg.default_config(16));
  // Every rank exchanges coarse blocks with rank 0.
  for (ProcessId r = 1; r < 16; ++r) {
    EXPECT_GT(m.volume(r, 0), 0.0) << r;
    EXPECT_GT(m.volume(0, r), 0.0) << r;
  }
}

TEST(ExtraPatterns, FtIsDenseAllPairs) {
  const App& ft = app_by_name("FT");
  const trace::CommMatrix m = ft.synthetic_pattern(16, ft.default_config(16));
  for (ProcessId i = 0; i < 16; ++i) {
    for (ProcessId j = 0; j < 16; ++j) {
      if (i != j) {
        EXPECT_GT(m.volume(i, j), 0.0) << i << "->" << j;
      }
    }
  }
}

TEST(ExtraPatterns, ProfiledVolumeMatchesSyntheticApproximately) {
  // The extra apps' synthetic patterns are structural models, not exact
  // replicas — but total traffic should agree within a factor of two.
  const net::CloudTopology topo(net::aws_experiment_profile(4));
  const net::NetworkModel model = net::NetworkModel::from_ground_truth(topo);
  for (const char* name : {"CG", "MG", "FT"}) {
    const App& app = app_by_name(name);
    AppConfig cfg = app.default_config(16);
    cfg.iterations = 3;
    cfg.problem_size = std::min(cfg.problem_size, 64);
    trace::ApplicationProfile profile(16);
    Mapping trivial(16, 0);
    runtime::Runtime rt(model, trivial, 45.0, &profile);
    rt.run([&](runtime::Comm& c) { (void)app.run(c, cfg); });
    const trace::CommMatrix profiled = profile.build_comm_matrix();
    const trace::CommMatrix synthetic = app.synthetic_pattern(16, cfg);
    EXPECT_LT(profiled.total_volume(), synthetic.total_volume() * 2.0) << name;
    EXPECT_GT(profiled.total_volume(), synthetic.total_volume() * 0.5) << name;
  }
}

}  // namespace
}  // namespace geomap::apps

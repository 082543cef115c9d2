// Differential test of the contention replay engine against the
// multi-tenant loop it replaced (multitenant_replay_oracle.h): random
// tenants, fault plans, rounds, start times and force-through settings
// must give bit-identical per-tenant results, busiest link, counters,
// stall samples and link series, and both sides must throw on the same
// inputs.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "apps/app.h"
#include "common/error.h"
#include "common/rng.h"
#include "fault/degraded_network.h"
#include "fault/fault_plan.h"
#include "multitenant_replay_oracle.h"
#include "net/cloud.h"
#include "obs/collector.h"
#include "sim/netsim.h"

namespace geomap::sim {
namespace {

/// A random pattern on `n` processes; about a quarter of its edges carry
/// no bytes, so their price is latency alone.
trace::CommMatrix random_pattern(int n, Rng& rng) {
  trace::CommMatrix::Builder b(n);
  const int messages = static_cast<int>(rng.uniform_int(1, 4 * n));
  for (int k = 0; k < messages; ++k) {
    const auto src = static_cast<ProcessId>(rng.uniform_index(n));
    const auto dst = static_cast<ProcessId>(rng.uniform_index(n));
    const Bytes bytes = rng.uniform_index(4) == 0 ? 0.0 : rng.uniform(1, 1e6);
    b.add_message(src, dst, bytes, static_cast<double>(rng.uniform_int(1, 8)));
  }
  return b.build();
}

/// Degradations, transient outages and permanent outages over the first
/// few virtual seconds, where the replays run.
fault::FaultPlan random_plan(int m, Rng& rng) {
  fault::FaultPlan plan(rng());
  const int events = static_cast<int>(rng.uniform_index(5));
  for (int k = 0; k < events; ++k) {
    const auto site = static_cast<SiteId>(rng.uniform_index(m));
    const Seconds start = rng.uniform(0, 6);
    switch (rng.uniform_index(4)) {
      case 0:
        plan.add_site_degradation(site, start, start + rng.uniform(0.1, 4),
                                  rng.uniform(0.1, 0.9),
                                  rng.uniform(1.0, 3.0));
        break;
      case 1: {
        const auto dst = static_cast<SiteId>(rng.uniform_index(m));
        plan.add_link_degradation(site, dst, start, fault::kNoEnd,
                                  rng.uniform(0.2, 1.0));
        break;
      }
      case 2:
        plan.add_site_outage(site, start, start + rng.uniform(0.01, 2));
        break;
      default:
        plan.add_site_outage(site, start);
        break;
    }
  }
  return plan;
}

struct Outcome {
  bool threw = false;
  MultiTenantReplayResult result;
};

template <typename Replay>
Outcome run(Replay&& replay) {
  Outcome out;
  try {
    out.result = replay();
  } catch (const Error&) {
    out.threw = true;
  }
  return out;
}

/// Every non-empty series of `timeline`: its recorded count and points.
std::map<std::string, std::pair<std::uint64_t, std::vector<obs::TimePoint>>>
series_of(const obs::TimeSeriesRegistry& timeline) {
  std::map<std::string, std::pair<std::uint64_t, std::vector<obs::TimePoint>>>
      out;
  for (const std::string& key : timeline.keys()) {
    const obs::TimeSeries* s = timeline.find(key);
    if (s->total_recorded() > 0) out[key] = {s->total_recorded(), s->points()};
  }
  return out;
}

TEST(MultiTenantReplayDiff, EngineMatchesTheOracleBitForBit) {
  Rng rng(20261019);
  int throws = 0, forced = 0, series_points = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const int m = static_cast<int>(rng.uniform_int(2, 6));
    const net::CloudTopology topo(
        net::synthetic_profile(m, 8, rng()));
    const net::NetworkModel network = net::NetworkModel::from_ground_truth(topo);
    const fault::FaultPlan plan = random_plan(m, rng);
    const fault::DegradedNetworkModel model(network, plan);

    const int k = static_cast<int>(rng.uniform_int(1, 6));
    std::vector<trace::CommMatrix> comms;
    std::vector<Mapping> mappings;
    for (int t = 0; t < k; ++t) {
      const int n = static_cast<int>(rng.uniform_int(2, 24));
      if (rng.uniform_index(2) == 0) {
        const std::vector<const apps::App*>& apps = apps::extended_apps();
        const apps::App& app = *apps[rng.uniform_index(apps.size())];
        comms.push_back(app.synthetic_pattern(n, app.default_config(n)));
      } else {
        comms.push_back(random_pattern(n, rng));
      }
      Mapping mapping(static_cast<std::size_t>(n));
      for (SiteId& s : mapping) s = static_cast<SiteId>(rng.uniform_index(m));
      mappings.push_back(std::move(mapping));
    }
    std::vector<TenantFlow> flows;
    for (int t = 0; t < k; ++t)
      flows.push_back(TenantFlow{&comms[static_cast<std::size_t>(t)],
                                 &mappings[static_cast<std::size_t>(t)]});

    MultiTenantReplayOptions options;
    options.start_time = rng.uniform_index(3) == 0 ? 0.0 : rng.uniform(0, 5);
    options.rounds = static_cast<int>(rng.uniform_int(1, 3));
    options.force_through = rng.uniform_index(4) != 0;
    options.force_timeout = rng.uniform(0.5, 3);
    const bool observe = rng.uniform_index(2) == 0;
    obs::Collector engine_obs, oracle_obs;

    options.collector = observe ? &oracle_obs : nullptr;
    const Outcome want = run(
        [&] { return testutil::oracle_replay_multitenant(flows, model, options); });
    options.collector = observe ? &engine_obs : nullptr;
    const Outcome got =
        run([&] { return replay_multitenant(flows, model, options); });

    ASSERT_EQ(got.threw, want.threw);
    if (want.threw) {
      EXPECT_FALSE(options.force_through);
      throws += 1;
      continue;
    }
    ASSERT_EQ(got.result.tenants.size(), want.result.tenants.size());
    for (std::size_t t = 0; t < want.result.tenants.size(); ++t) {
      SCOPED_TRACE("tenant " + std::to_string(t));
      EXPECT_EQ(got.result.tenants[t].makespan, want.result.tenants[t].makespan);
      EXPECT_EQ(got.result.tenants[t].total_transfer_seconds,
                want.result.tenants[t].total_transfer_seconds);
      EXPECT_EQ(got.result.tenants[t].forced_edges,
                want.result.tenants[t].forced_edges);
      forced += want.result.tenants[t].forced_edges;
    }
    EXPECT_EQ(got.result.makespan, want.result.makespan);
    EXPECT_EQ(got.result.busiest_link_seconds,
              want.result.busiest_link_seconds);
    if (!observe) continue;

    for (const char* name : {"sim.mt_edges_replayed", "sim.mt_forced_edges"}) {
      EXPECT_EQ(engine_obs.metrics().counter(name).value(),
                oracle_obs.metrics().counter(name).value())
          << name;
    }
    const char* stalls = "sim.mt_contention_stall_seconds";
    EXPECT_EQ(engine_obs.metrics().histogram(stalls).samples(),
              oracle_obs.metrics().histogram(stalls).samples());
    const auto want_series = series_of(oracle_obs.timeline());
    EXPECT_EQ(series_of(engine_obs.timeline()), want_series);
    for (const auto& [key, series] : want_series)
      series_points += static_cast<int>(series.first);
  }
  // The inputs reach every path: a permanent outage with force-through
  // off, forced edges and recorded link series.
  EXPECT_GT(throws, 0);
  EXPECT_GT(forced, 0);
  EXPECT_GT(series_points, 0);
}

}  // namespace
}  // namespace geomap::sim

// Differential test of the contention replay engine against the
// multi-tenant loop it replaced (multitenant_replay_oracle.h): random
// tenants, fault plans, rounds, start times and force-through settings
// must give bit-identical per-tenant results, busiest link, counters,
// stall samples and link series, and both sides must throw on the same
// inputs. At benchmark scale (LU at N = 2^14 on the 4 AWS regions,
// K-means at N = 4096 on 64 synthetic sites) both replay_with_contention
// overloads and replay_multitenant, with and without a fault event, must
// match it too.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "apps/app.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/geodist_mapper.h"
#include "fault/degraded_network.h"
#include "fault/fault_plan.h"
#include "mapping/problem.h"
#include "mapping/random_mapper.h"
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

/// Per-tenant results, makespan and busiest link, bit for bit.
void expect_same_result(const MultiTenantReplayResult& got,
                        const MultiTenantReplayResult& want) {
  ASSERT_EQ(got.tenants.size(), want.tenants.size());
  for (std::size_t t = 0; t < want.tenants.size(); ++t) {
    SCOPED_TRACE("tenant " + std::to_string(t));
    EXPECT_EQ(got.tenants[t].makespan, want.tenants[t].makespan);
    EXPECT_EQ(got.tenants[t].total_transfer_seconds,
              want.tenants[t].total_transfer_seconds);
    EXPECT_EQ(got.tenants[t].forced_edges, want.tenants[t].forced_edges);
  }
  EXPECT_EQ(got.makespan, want.makespan);
  EXPECT_EQ(got.busiest_link_seconds, want.busiest_link_seconds);
}

TEST(MultiTenantReplayDiff, EngineMatchesTheOracleBitForBit) {
  Rng rng(20261019);
  int throws = 0, forced = 0, series_points = 0, empty_plans = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const int m = static_cast<int>(rng.uniform_int(2, 6));
    const net::CloudTopology topo(
        net::synthetic_profile(m, 8, rng()));
    const net::NetworkModel network = net::NetworkModel::from_ground_truth(topo);
    const fault::FaultPlan plan = random_plan(m, rng);
    const fault::DegradedNetworkModel model(network, plan);
    empty_plans += plan.empty() ? 1 : 0;

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
    expect_same_result(got.result, want.result);
    for (const TenantReplayResult& t : want.result.tenants)
      forced += t.forced_edges;
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
  // off, forced edges, recorded link series, and empty plans, which the
  // engine replays as a healthy network.
  EXPECT_GT(throws, 0);
  EXPECT_GT(forced, 0);
  EXPECT_GT(series_points, 0);
  EXPECT_GT(empty_plans, 0);
}

/// `app`'s pattern on `n` processes over `topo`.
mapping::MappingProblem scale_problem(const char* app_name, int n,
                                      const net::CloudTopology& topo) {
  const apps::App& app = apps::app_by_name(app_name);
  mapping::MappingProblem p;
  p.comm = app.synthetic_pattern(n, app.default_config(n));
  p.network = net::NetworkModel::from_ground_truth(topo);
  p.capacities = topo.capacities();
  p.site_coords = topo.coordinates();
  p.validate();
  return p;
}

mapping::MappingProblem lu_on_the_aws_regions() {
  const int n = 1 << 14;
  return scale_problem(
      "LU", n, net::CloudTopology(net::aws_experiment_profile(n / 4)));
}

mapping::MappingProblem kmeans_on_64_sites() {
  const int n = 4096;
  return scale_problem(
      "K-means", n, net::CloudTopology(net::synthetic_profile(64, n / 64)));
}

Mapping random_mapping(const mapping::MappingProblem& p) {
  Rng rng(11);
  return mapping::RandomMapper::draw(p, rng);
}

/// The stall samples and link series two collectors recorded, where
/// `engine` recorded its stalls as `engine_stalls`.
void expect_same_observations(obs::Collector& engine,
                              const char* engine_stalls,
                              obs::Collector& oracle) {
  EXPECT_EQ(
      engine.metrics().histogram(engine_stalls).samples(),
      oracle.metrics().histogram("sim.mt_contention_stall_seconds").samples());
  const auto want_series = series_of(oracle.timeline());
  EXPECT_FALSE(want_series.empty());
  EXPECT_EQ(series_of(engine.timeline()), want_series);
}

/// Every replay entry point on one mapping against the oracle, bit for
/// bit: both replay_with_contention overloads (the degraded one with an
/// empty plan, from 0 and from a later start), and replay_multitenant
/// with an empty plan and with one site degradation across the middle of
/// the replay, over 1 and 3 rounds, with and without a collector.
void expect_engine_matches_oracle(const mapping::MappingProblem& problem,
                                  const Mapping& mapping) {
  const std::vector<TenantFlow> flows = {{&problem.comm, &mapping}};
  const fault::FaultPlan no_faults;
  const fault::DegradedNetworkModel healthy(problem.network, no_faults);

  MultiTenantReplayOptions options;
  obs::Collector oracle_obs;
  options.collector = &oracle_obs;
  const MultiTenantReplayResult want =
      testutil::oracle_replay_multitenant(flows, healthy, options);
  ASSERT_GT(want.makespan, 0.0);
  {
    SCOPED_TRACE("replay_with_contention, healthy model");
    obs::Collector engine_obs;
    const ContentionResult got = replay_with_contention(
        problem.comm, problem.network, mapping, &engine_obs);
    EXPECT_EQ(got.makespan, want.makespan);
    EXPECT_EQ(got.busiest_link_seconds, want.busiest_link_seconds);
    EXPECT_EQ(got.total_transfer_seconds,
              want.tenants[0].total_transfer_seconds);
    expect_same_observations(engine_obs, "sim.contention_stall_seconds",
                             oracle_obs);
  }
  for (const Seconds start_time : {0.0, 1.5}) {
    SCOPED_TRACE("replay_with_contention, empty plan, start " +
                 std::to_string(start_time));
    MultiTenantReplayOptions from;
    from.start_time = start_time;
    const MultiTenantReplayResult want_from =
        testutil::oracle_replay_multitenant(flows, healthy, from);
    const ContentionResult got =
        replay_with_contention(problem.comm, healthy, mapping, start_time);
    EXPECT_EQ(got.makespan, want_from.makespan);
    EXPECT_EQ(got.busiest_link_seconds, want_from.busiest_link_seconds);
    EXPECT_EQ(got.total_transfer_seconds,
              want_from.tenants[0].total_transfer_seconds);
  }

  fault::FaultPlan one_event;
  one_event.add_site_degradation(1, 0.25 * want.makespan,
                                 0.75 * want.makespan, 0.5, 2.0);
  const fault::DegradedNetworkModel degraded(problem.network, one_event);
  for (const fault::DegradedNetworkModel* model : {&healthy, &degraded}) {
    for (const int rounds : {1, 3}) {
      SCOPED_TRACE(std::string("replay_multitenant, ") +
                   (model == &healthy ? "empty plan" : "one event") +
                   ", rounds " + std::to_string(rounds));
      obs::Collector engine_obs, want_obs;
      MultiTenantReplayOptions o;
      o.rounds = rounds;
      o.collector = &want_obs;
      const MultiTenantReplayResult want_mt =
          testutil::oracle_replay_multitenant(flows, *model, o);
      o.collector = nullptr;
      expect_same_result(replay_multitenant(flows, *model, o), want_mt);
      o.collector = &engine_obs;
      expect_same_result(replay_multitenant(flows, *model, o), want_mt);
      for (const char* name :
           {"sim.mt_edges_replayed", "sim.mt_forced_edges"}) {
        EXPECT_EQ(engine_obs.metrics().counter(name).value(),
                  want_obs.metrics().counter(name).value())
            << name;
      }
      expect_same_observations(engine_obs, "sim.mt_contention_stall_seconds",
                               want_obs);
    }
  }
}

TEST(MultiTenantReplayDiff, LuOnTheAwsRegionsGeoDistMatchesTheOracle) {
  const mapping::MappingProblem p = lu_on_the_aws_regions();
  expect_engine_matches_oracle(p, core::GeoDistMapper().map(p));
}

TEST(MultiTenantReplayDiff, LuOnTheAwsRegionsRandomMatchesTheOracle) {
  const mapping::MappingProblem p = lu_on_the_aws_regions();
  expect_engine_matches_oracle(p, random_mapping(p));
}

TEST(MultiTenantReplayDiff, KMeansOn64SitesGeoDistMatchesTheOracle) {
  const mapping::MappingProblem p = kmeans_on_64_sites();
  expect_engine_matches_oracle(p, core::GeoDistMapper().map(p));
}

TEST(MultiTenantReplayDiff, KMeansOn64SitesRandomMatchesTheOracle) {
  const mapping::MappingProblem p = kmeans_on_64_sites();
  expect_engine_matches_oracle(p, random_mapping(p));
}

}  // namespace
}  // namespace geomap::sim

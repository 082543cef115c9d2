#pragma once
// Shared scaffolding for the experiment harnesses. Every bench binary
// reproduces one paper table or figure: it prints the same rows/series
// the paper reports, using this module's common setup (the 4-region EC2
// deployment, calibrated network model, app profiling and the
// Baseline/Greedy/MPIPP/Geo-distributed comparison set).

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.h"
#include "common/atomic_file.h"
#include "common/cli.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "obs/collector.h"
#include "obs/openmetrics.h"
#include "core/geodist_mapper.h"
#include "core/pipeline.h"
#include "mapping/cost.h"
#include "mapping/greedy_mapper.h"
#include "mapping/metrics.h"
#include "mapping/mpipp_mapper.h"
#include "mapping/problem.h"
#include "mapping/random_mapper.h"
#include "net/calibration.h"
#include "net/cloud.h"
#include "runtime/comm.h"
#include "sim/netsim.h"
#include "trace/profile.h"

namespace geomap::bench {

/// The paper's EC2 deployment: 4 regions x `nodes_per_site` m4.xlarge.
struct Ec2Context {
  net::CloudTopology topo;
  net::CalibrationResult calib;

  explicit Ec2Context(int nodes_per_site)
      : topo(net::aws_experiment_profile(nodes_per_site)),
        calib(net::Calibrator().calibrate(topo)) {}
};

/// Profile `app` with the tracer attached (one execution under a trivial
/// mapping; the pattern is mapping-independent for these apps).
inline trace::CommMatrix profile_app(const apps::App& app,
                                     const apps::AppConfig& cfg,
                                     const net::NetworkModel& model) {
  trace::ApplicationProfile profile(cfg.num_ranks);
  Mapping trivial(static_cast<std::size_t>(cfg.num_ranks), 0);
  runtime::Runtime rt(model, trivial, 50.0, &profile);
  rt.run([&](runtime::Comm& comm) { (void)app.run(comm, cfg); });
  return profile.build_comm_matrix();
}

/// The paper's comparison set (Section 5.1), in presentation order.
/// MPIPP is omitted above `mpipp_limit` processes — the paper notes it is
/// "very inefficient" beyond ~1000 processes.
struct AlgorithmSet {
  std::unique_ptr<mapping::Mapper> greedy;
  std::unique_ptr<mapping::Mapper> mpipp;  // may be null at large N
  std::unique_ptr<mapping::Mapper> geo;

  std::vector<mapping::Mapper*> all() const {
    std::vector<mapping::Mapper*> out = {greedy.get()};
    if (mpipp) out.push_back(mpipp.get());
    out.push_back(geo.get());
    return out;
  }
};

inline AlgorithmSet paper_algorithms(int num_processes, int mpipp_limit = 1000,
                                     obs::Collector* collector = nullptr) {
  AlgorithmSet set;
  set.greedy = std::make_unique<mapping::GreedyMapper>();
  if (num_processes <= mpipp_limit)
    set.mpipp = std::make_unique<mapping::MpippMapper>();
  set.geo = std::make_unique<core::GeoDistMapper>();
  for (mapping::Mapper* m : set.all()) m->set_collector(collector);
  return set;
}

/// Mean cost of `trials` random (Baseline) mappings — the paper
/// normalizes all improvements against the Baseline average.
inline RunningStats baseline_cost_stats(const mapping::MappingProblem& p,
                                        int trials, std::uint64_t seed) {
  const mapping::CostEvaluator eval(p);
  Rng rng(seed);
  RunningStats stats;
  for (int t = 0; t < trials; ++t)
    stats.add(eval.total_cost(mapping::RandomMapper::draw(p, rng)));
  return stats;
}

/// Parse the standard bench flags shared by all harnesses.
struct BenchFlags {
  int trials = 5;
  std::uint64_t seed = 2017;
  bool csv = false;
};

inline void print_table(const Table& table, bool csv) {
  if (csv) table.print_csv(std::cout);
  else table.print(std::cout);
}

/// True when GEOMAP_PROFILE_DETERMINISTIC asks for byte-identical
/// output. Benches must zero every wall-clock field they emit under
/// this flag — the same contract the profiler's clocks follow — so a
/// rerun with the same seed cmp's clean.
inline bool deterministic_output() {
  const char* v = std::getenv("GEOMAP_PROFILE_DETERMINISTIC");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// `ms` as-is normally, 0 under GEOMAP_PROFILE_DETERMINISTIC.
inline double masked_ms(double ms) { return deterministic_output() ? 0.0 : ms; }

/// Collector wired from the shared observability flags (--obs-dir plus
/// the per-artifact --*-out overrides). One call to add_flags() in every
/// bench registers the full set; parse() (or the constructor) reads them
/// back. collector() is nullptr when every flag is empty, so benches
/// stay on the exact uninstrumented path unless asked; flush() (also run
/// at destruction) writes whichever files were requested, each stamped
/// with the run-metadata header (bench name from argv[0], the bench's
/// --seed when it has one, geomap version, git describe, timestamp).
/// checkpoint() writes the same set mid-run — atomically, via tmp+rename
/// — so `geomap-obsctl watch` can follow a live --obs-dir without ever
/// reading a half-written artifact.
class ObsSink {
 public:
  /// Register the shared observability flags. Empty path = exporter off.
  static void add_flags(CliParser& cli) {
    cli.add_string("metrics-out", "",
                   "write a metrics-registry JSON snapshot to this file");
    cli.add_string("trace-out", "",
                   "write a Chrome trace-event JSON file (Perfetto-loadable)");
    cli.add_string("audit-out", "",
                   "write the mapper decision audit trail JSON to this file");
    cli.add_string("critpath-out", "",
                   "write the causal critical-path JSON (geomap-obsctl input) "
                   "to this file");
    cli.add_string("timeline-out", "",
                   "write the windowed time-series + detection timeline JSON "
                   "(geomap-obsctl timeline input) to this file");
    cli.add_string("profile-out", "",
                   "write the hierarchical phase profile JSON (geomap-obsctl "
                   "profile input) to this file");
    cli.add_string("collapse-out", "",
                   "write collapsed-stack lines (flamegraph.pl / speedscope "
                   "input) to this file");
    cli.add_string("events-out", "",
                   "write the structured event stream as JSON lines "
                   "(geomap-obsctl events input) to this file");
    cli.add_string("openmetrics-out", "",
                   "write the metrics registry as OpenMetrics/Prometheus "
                   "text exposition to this file");
    cli.add_string("incidents-out", "",
                   "write the causal incident reconstruction JSON "
                   "(geomap-obsctl incidents/explain input) to this file");
    cli.add_string("obs-dir", "",
                   "write all observability artifacts into this directory "
                   "as metrics.json, trace.json, audit.json, critpath.json, "
                   "timeline.json, profile.json, profile.collapsed, "
                   "events.jsonl, metrics.prom, incidents.json "
                   "(per-artifact --*-out flags override individual paths)");
  }

  /// Read the flags add_flags() registered back into a sink.
  static ObsSink parse(const CliParser& cli) { return ObsSink(cli); }

  explicit ObsSink(const CliParser& cli)
      : metrics_path_(cli.get_string("metrics-out")),
        trace_path_(cli.get_string("trace-out")),
        audit_path_(cli.get_string("audit-out")),
        critpath_path_(cli.get_string("critpath-out")),
        timeline_path_(cli.get_string("timeline-out")),
        profile_path_(cli.get_string("profile-out")),
        collapse_path_(cli.get_string("collapse-out")),
        events_path_(cli.get_string("events-out")),
        openmetrics_path_(cli.get_string("openmetrics-out")),
        incidents_path_(cli.get_string("incidents-out")) {
    const std::string dir = cli.get_string("obs-dir");
    if (!dir.empty()) {
      std::filesystem::create_directories(dir);
      if (metrics_path_.empty()) metrics_path_ = dir + "/metrics.json";
      if (trace_path_.empty()) trace_path_ = dir + "/trace.json";
      if (audit_path_.empty()) audit_path_ = dir + "/audit.json";
      if (critpath_path_.empty()) critpath_path_ = dir + "/critpath.json";
      if (timeline_path_.empty()) timeline_path_ = dir + "/timeline.json";
      if (profile_path_.empty()) profile_path_ = dir + "/profile.json";
      if (collapse_path_.empty()) collapse_path_ = dir + "/profile.collapsed";
      if (events_path_.empty()) events_path_ = dir + "/events.jsonl";
      if (openmetrics_path_.empty()) openmetrics_path_ = dir + "/metrics.prom";
      if (incidents_path_.empty()) incidents_path_ = dir + "/incidents.json";
    }
    if (!metrics_path_.empty() || !trace_path_.empty() ||
        !audit_path_.empty() || !critpath_path_.empty() ||
        !timeline_path_.empty() || !profile_path_.empty() ||
        !collapse_path_.empty() || !events_path_.empty() ||
        !openmetrics_path_.empty() || !incidents_path_.empty()) {
      collector_ = std::make_unique<obs::Collector>();
      // Pay for the forensic recorders only when their artifact was
      // asked for; the always-on set stays under the CI overhead gate.
      collector_->set_audit_enabled(!audit_path_.empty());
      collector_->set_critpath_enabled(!critpath_path_.empty());
      const bool has_seed = cli.has("seed");
      collector_->set_meta(obs::make_run_meta(
          cli.program_name(),
          has_seed ? static_cast<std::uint64_t>(cli.get_int("seed")) : 0,
          has_seed));
    }
  }

  ObsSink(const ObsSink&) = delete;
  ObsSink& operator=(const ObsSink&) = delete;
  ObsSink(ObsSink&&) = default;
  ~ObsSink() { flush(); }

  obs::Collector* collector() { return collector_.get(); }

  /// Final export: writes every requested artifact once (latched; the
  /// destructor is a no-op afterwards).
  void flush() {
    if (collector_ == nullptr || flushed_) return;
    flushed_ = true;
    write_all();
  }

  /// Mid-run export for live watching: writes every requested artifact
  /// *now* without latching, so a later checkpoint() or the final
  /// flush() overwrites it with fresher state. Each file lands via
  /// tmp + rename, so a concurrent reader (obsctl watch, tail -f on the
  /// directory) never sees a torn artifact.
  void checkpoint() {
    if (collector_ == nullptr || flushed_) return;
    write_all();
  }

 private:
  void write_all() {
    write(metrics_path_, [&](std::ostream& os) {
      collector_->write_metrics_json(os);
    });
    write(trace_path_, [&](std::ostream& os) {
      collector_->write_trace_json(os);
    });
    write(audit_path_, [&](std::ostream& os) {
      collector_->write_audit_json(os);
    });
    write(critpath_path_, [&](std::ostream& os) {
      collector_->write_critpath_json(os);
    });
    write(timeline_path_, [&](std::ostream& os) {
      collector_->write_timeline_json(os);
    });
    write(events_path_, [&](std::ostream& os) {
      collector_->write_events_jsonl(os);
    });
    write(incidents_path_, [&](std::ostream& os) {
      collector_->write_incidents_json(os);
    });
    write(openmetrics_path_, [&](std::ostream& os) {
      obs::write_openmetrics(os, obs::snapshot_metrics(collector_->metrics()),
                             &collector_->meta());
    });
    // Fold the OS view in right before export so profile.json's memory
    // section can be sanity-checked against the instrumented accounts
    // (no-op in deterministic mode).
    collector_->mem().sample_rss();
    write(profile_path_, [&](std::ostream& os) {
      collector_->write_profile_json(os);
    });
    write(collapse_path_, [&](std::ostream& os) {
      collector_->write_profile_collapsed(os);
    });
  }

  template <typename WriteFn>
  void write(const std::string& path, WriteFn&& fn) {
    if (path.empty()) return;
    // Write-then-rename keeps every published artifact whole even while
    // a watcher polls the directory mid-run.
    write_file_atomic(path, std::forward<WriteFn>(fn));
  }

  std::string metrics_path_;
  std::string trace_path_;
  std::string audit_path_;
  std::string critpath_path_;
  std::string timeline_path_;
  std::string profile_path_;
  std::string collapse_path_;
  std::string events_path_;
  std::string openmetrics_path_;
  std::string incidents_path_;
  std::unique_ptr<obs::Collector> collector_;
  bool flushed_ = false;
};

}  // namespace geomap::bench

// geomap_perfbench: runs one benchmark workload in this process and
// prints one JSON object with everything it measured as the last line
// of standard output. perfbench/run.py builds this binary, runs it and
// turns that object into the report; see README.md.
//
//   geomap_perfbench --workload map_many_sites --seed 1 --seconds 10
//       --trace 0 --work-dir .bench_build/work/1234

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <thread>

#include "common/cli.h"
#include "common/json_writer.h"
#include "common/parallel.h"
#include "fault/crash.h"
#include "harness.h"
#include "workloads.h"

namespace {

using namespace perfbench;

constexpr std::size_t kMaxWorkers = 4;

void write_map(geomap::JsonWriter& w, const char* key,
               const std::map<std::string, double>& values) {
  w.key(key).begin_object();
  for (const auto& [name, value] : values) w.field(name, value);
  w.end_object();
}

void write_result(const RunOptions& options, bool traced,
                  const Fingerprint& fp, const Result& res,
                  const Tracer& tracer) {
  geomap::JsonWriter w(std::cout, false);
  w.begin_object();
  w.field("workload", std::string_view(options.workload));
  w.field("seed", options.seed);
  w.field("traced", traced);
  w.key("fingerprint").begin_object();
  w.field("nproc", static_cast<std::int64_t>(fp.nproc));
  w.field("workers", static_cast<std::int64_t>(fp.workers));
  w.field("cpu_model", std::string_view(fp.cpu_model));
  w.field("compiler", std::string_view(fp.compiler));
  w.field("build_type", std::string_view(fp.build_type));
  w.field("sanitize", std::string_view(fp.sanitize));
  w.field("git_describe", std::string_view(fp.git_describe));
  w.end_object();
  w.field("attempted", res.attempted);
  w.field("failed", res.failed);
  w.key("failures").begin_array();
  for (const std::string& f : res.failures) w.value(std::string_view(f));
  w.end_array();
  write_map(w, "end_to_end", res.end_to_end);
  write_map(w, "named", res.named);
  write_map(w, "per_layer", res.per_layer);
  w.key("samples").begin_object();
  for (const auto& [name, values] : res.samples) {
    w.key(name).begin_array();
    for (const double v : values) w.value(v);
    w.end_array();
  }
  w.end_object();
  w.key("refold").begin_object();
  for (const auto& [name, parts] : res.refold) {
    w.key(name).begin_array();
    for (const std::string& p : parts) w.value(std::string_view(p));
    w.end_array();
  }
  w.end_object();
  w.key("spans").begin_array();
  for (const Tracer::Summary& s : tracer.summarize()) {
    w.begin_object()
        .field("name", std::string_view(s.name))
        .field("parent", std::string_view(s.parent))
        .field("count", static_cast<std::int64_t>(s.count))
        .field("median_s", s.median_s)
        .field("median_self_s", s.median_self_s)
        .end_object();
  }
  w.end_array();
  w.end_object();
  std::cout << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  geomap::CliParser cli(
      "geomap wall-clock benchmark, one workload per process");
  cli.add_string("workload", "",
                 "map_large_n, map_many_sites or storm_recover");
  cli.add_int("seed", 1, "seed every input is generated from");
  cli.add_double("seconds", 10, "timed work per run");
  cli.add_int("trace", 0, "1 = traced run: spans and per-layer metrics");
  cli.add_string("work-dir", "", "private scratch directory, removed at exit");
  cli.add_string("trace-out", "", "write the spans here (Chrome trace JSON)");
  if (!cli.parse(argc, argv)) return 0;

  RunOptions options;
  options.workload = cli.get_string("workload");
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  options.seconds = cli.get_double("seconds");
  options.work_dir = cli.get_string("work-dir");
  const bool traced = cli.get_int("trace") != 0;
  const bool is_map = options.workload == "map_large_n" ||
                      options.workload == "map_many_sites";
  if (!is_map && options.workload != "storm_recover") {
    std::cerr << "perfbench: unknown workload '" << options.workload << "'\n";
    return 2;
  }
  if (options.work_dir.empty()) {
    std::cerr << "perfbench: --work-dir is required\n";
    return 2;
  }

  // storm_recover runs on one worker. parallel_for starts its threads on
  // every call, and the storm makes thousands of calls on tiny problems:
  // on 4 workers a case took 1.2-2x longer, a run spent 14 s in system
  // time instead of 0.4 s, and its times followed the host's load.
  const std::size_t workers =
      is_map ? std::min<std::size_t>(
                   kMaxWorkers,
                   std::max(1u, std::thread::hardware_concurrency()))
             : 1;
  geomap::set_parallel_workers(workers);
  const Fingerprint fp = fingerprint(geomap::parallel_workers());
  if (const std::string why = refusal(fp); !why.empty()) {
    std::cerr << "perfbench: refusing to report numbers: " << why << "\n";
    return 2;
  }
  if (geomap::fault::CrashInjector::instance().armed()) {
    std::cerr << "perfbench: a crash point is armed from the environment\n";
    return 2;
  }

  std::filesystem::create_directories(options.work_dir);
  Tracer tracer(traced);
  Result res;
  int status = 0;
  try {
    res = is_map ? run_map_workload(options, tracer)
                 : run_storm_workload(options, tracer);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " aborted: " << e.what()
              << "\n";
    status = 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);
  if (status != 0) return status;

  const double rss = peak_rss_mib();
  res.end_to_end["peak_rss_mib"] = rss;
  res.named["peak_rss_mib"] = rss;
  res.named["error_rate"] =
      static_cast<double>(res.failed) / static_cast<double>(res.attempted);
  const std::string trace_out = cli.get_string("trace-out");
  if (traced && !trace_out.empty()) tracer.write_chrome_trace(trace_out);
  write_result(options, traced, fp, res, tracer);
  return 0;
}

#pragma once
// The benchmark's three workloads. Each runs in its own process, builds
// its inputs from the run seed, measures for `seconds` of timed work and
// fills a Result; with a tracer enabled it also times the per-layer
// calls (see README.md for every metric and the layer it belongs to).

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Private scratch space of this process (WAL directories); created
  /// by the caller and removed when the run ends.
  std::string work_dir;
};

/// map_large_n and map_many_sites: edge list -> CSR -> calibrate -> map,
/// then evaluate (alpha-beta cost + contention replay).
Result run_map_workload(const RunOptions& options, Tracer& tracer);

/// storm_recover: WAL-backed remap storms, crashed mid-storm and resumed.
Result run_storm_workload(const RunOptions& options, Tracer& tracer);

}  // namespace perfbench

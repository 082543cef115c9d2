#pragma once
// End-to-end optimization pipeline (paper Figure 2): network calibration
// and application profiling feed the grouping + mapping optimization; the
// user supplies nothing but the deployment and the application.

#include <memory>

#include "core/geodist_mapper.h"
#include "mapping/mapper.h"
#include "net/calibration.h"
#include "net/cloud.h"
#include "trace/comm_matrix.h"

namespace geomap::core {

struct PipelineOptions {
  net::CalibrationOptions calibration;
  GeoDistOptions mapper;

  /// Observability (opt-in, not owned): when set, execute() wraps the
  /// calibrate/build/map phases in wall-clock spans and attaches the
  /// collector to the mapper. With nullptr the pipeline runs
  /// uninstrumented and its results are bit-identical.
  obs::Collector* collector = nullptr;
};

struct PipelineResult {
  net::CalibrationResult calibration;
  mapping::MapperRun run;
};

/// Assemble a MappingProblem from a deployment and a profiled (or
/// synthetic) communication matrix. Capacity and coordinates come from the
/// topology; the network model from `model`.
mapping::MappingProblem make_problem(const net::CloudTopology& topo,
                                     const net::NetworkModel& model,
                                     trace::CommMatrix comm,
                                     ConstraintVector constraints = {});

class Pipeline {
 public:
  explicit Pipeline(PipelineOptions options = {}) : options_(options) {}

  /// Calibrate the deployment, build the problem from the profiled
  /// communication matrix, and run the geo-distributed mapper.
  PipelineResult execute(const net::CloudTopology& topo,
                         trace::CommMatrix comm,
                         ConstraintVector constraints = {}) const;

  const PipelineOptions& options() const { return options_; }

 private:
  PipelineOptions options_;
};

}  // namespace geomap::core

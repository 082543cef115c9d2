#include "core/pipeline.h"

#include "obs/collector.h"

namespace geomap::core {

mapping::MappingProblem make_problem(const net::CloudTopology& topo,
                                     const net::NetworkModel& model,
                                     trace::CommMatrix comm,
                                     ConstraintVector constraints) {
  mapping::MappingProblem problem;
  problem.comm = std::move(comm);
  problem.network = model;
  problem.capacities = topo.capacities();
  problem.constraints = std::move(constraints);
  problem.site_coords = topo.coordinates();
  problem.validate();
  return problem;
}

PipelineResult Pipeline::execute(const net::CloudTopology& topo,
                                 trace::CommMatrix comm,
                                 ConstraintVector constraints) const {
  obs::Collector* const col = options_.collector;
  PipelineResult result;
  obs::Phase pipeline_phase;
  if (col != nullptr) pipeline_phase = col->profile().phase("pipeline");
  {
    obs::Span s;
    obs::Phase p;
    if (col != nullptr) {
      s = col->tracer().span("pipeline/calibrate");
      p = col->profile().phase("calibrate");
    }
    const net::Calibrator calibrator(options_.calibration);
    result.calibration = calibrator.calibrate(topo);
  }

  obs::Phase build_phase;
  if (col != nullptr) build_phase = col->profile().phase("build-problem");
  mapping::MappingProblem problem = make_problem(
      topo, result.calibration.model, std::move(comm), std::move(constraints));
  if (col != nullptr)
    col->mem().note("comm.csr", problem.comm.memory_bytes());
  build_phase.end();

  GeoDistMapper mapper(options_.mapper);
  mapper.set_collector(col);
  {
    obs::Span s;
    obs::Phase p;
    if (col != nullptr) {
      s = col->tracer().span("pipeline/map");
      p = col->profile().phase("map");
    }
    result.run = mapping::run_mapper(mapper, problem);
  }
  return result;
}

}  // namespace geomap::core

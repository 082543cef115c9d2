#pragma once
// Text serialization of calibrated network models and deployment
// metadata, so downstream users can bring their own measurements to the
// mapping tool (and archive calibrations for reproducibility).
//
// Format (whitespace-separated, '#' comments allowed at line starts):
//
//   geomap-network 1
//   sites <M>
//   latency-seconds
//   <M x M values, row-major>
//   bandwidth-bytes-per-second
//   <M x M values>
//   capacities            # optional section
//   <M integers>
//   coordinates           # optional section
//   <M "lat lon" pairs>
//   names                 # optional section
//   <M quoted names>

#include <string>
#include <vector>

#include "net/cloud.h"
#include "net/geo.h"
#include "net/network_model.h"

namespace geomap::net {

/// Everything the mapping pipeline needs to know about a deployment.
struct NetworkSpec {
  NetworkModel model;
  std::vector<int> capacities;          // empty = caller decides
  std::vector<GeoCoordinate> coords;    // empty = latency-based grouping
  std::vector<std::string> site_names;  // empty = "site-<k>"
};

/// Serialize a spec (all sections that are present).
std::string to_text(const NetworkSpec& spec);

/// Convenience: snapshot a topology's ground truth (or a calibrated
/// model) together with its capacities/coordinates/names.
NetworkSpec make_spec(const CloudTopology& topo, const NetworkModel& model);

/// Parse; throws InvalidArgument on malformed input — a number that is
/// not finite, an integer field out of range, a site count the text
/// cannot back, a missing or repeated section — and Error when the
/// matrices do not form a valid NetworkModel.
NetworkSpec network_spec_from_text(const std::string& text);

}  // namespace geomap::net

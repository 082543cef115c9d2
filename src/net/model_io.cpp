#include "net/model_io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <set>
#include <sstream>

#include "common/error.h"

namespace geomap::net {

std::string to_text(const NetworkSpec& spec) {
  const int m = spec.model.num_sites();
  std::ostringstream os;
  os << std::setprecision(17);
  os << "geomap-network 1\n";
  os << "sites " << m << "\n";
  os << "latency-seconds\n";
  for (SiteId k = 0; k < m; ++k) {
    for (SiteId l = 0; l < m; ++l) os << spec.model.latency(k, l) << ' ';
    os << '\n';
  }
  os << "bandwidth-bytes-per-second\n";
  for (SiteId k = 0; k < m; ++k) {
    for (SiteId l = 0; l < m; ++l) os << spec.model.bandwidth(k, l) << ' ';
    os << '\n';
  }
  if (!spec.capacities.empty()) {
    os << "capacities\n";
    for (const int c : spec.capacities) os << c << ' ';
    os << '\n';
  }
  if (!spec.coords.empty()) {
    os << "coordinates\n";
    for (const GeoCoordinate& c : spec.coords)
      os << c.latitude_deg << ' ' << c.longitude_deg << '\n';
  }
  if (!spec.site_names.empty()) {
    os << "names\n";
    for (const std::string& name : spec.site_names)
      os << std::quoted(name) << '\n';
  }
  return os.str();
}

NetworkSpec make_spec(const CloudTopology& topo, const NetworkModel& model) {
  GEOMAP_CHECK_MSG(model.num_sites() == topo.num_sites(),
                   "model/topology site count mismatch");
  NetworkSpec spec;
  spec.model = model;
  spec.capacities = topo.capacities();
  spec.coords = topo.coordinates();
  for (const Site& s : topo.sites()) spec.site_names.push_back(s.name);
  return spec;
}

namespace {

/// Skip comment lines; read the next non-comment token.
class TokenReader {
 public:
  explicit TokenReader(const std::string& text) : in_(text) {}

  /// The next token, or "" at the end of the text.
  std::string token() {
    std::string t;
    while (in_ >> t && t[0] == '#') std::getline(in_, t);
    return in_ ? t : std::string();
  }

  std::string next() {
    std::string t = token();
    if (t.empty()) throw InvalidArgument("network spec: unexpected end of input");
    return t;
  }

  /// Characters not read yet.
  std::size_t remaining() {
    return static_cast<std::size_t>(
        std::max<std::streamsize>(0, in_.rdbuf()->in_avail()));
  }

  /// A finite number spelled by the whole token.
  double next_double() {
    const std::string t = next();
    std::size_t used = 0;
    double x = 0;
    try {
      x = std::stod(t, &used);
    } catch (const std::exception&) {
    }
    GEOMAP_CHECK_ARG(used == t.size() && std::isfinite(x),
                     "network spec: expected a finite number, got '" << t
                                                                     << "'");
    return x;
  }

  /// Every integer field's one decoder: a number that is an integer in
  /// [lo, hi], checked before it is converted.
  int next_int(int lo, int hi, const char* what) {
    const double x = next_double();
    GEOMAP_CHECK_ARG(x >= lo && x <= hi && x == std::trunc(x),
                     "network spec: " << what << " must be an integer in ["
                                      << lo << ", " << hi << "], got " << x);
    return static_cast<int>(x);
  }

  std::string next_quoted() {
    // Names were written with std::quoted; re-read via stream extraction.
    std::string name;
    in_ >> std::ws;
    in_ >> std::quoted(name);
    GEOMAP_CHECK_ARG(static_cast<bool>(in_), "network spec: bad quoted name");
    return name;
  }

 private:
  std::istringstream in_;
};

Matrix read_matrix(TokenReader& reader, int m) {
  Matrix out = Matrix::square(static_cast<std::size_t>(m));
  for (std::size_t k = 0; k < out.rows(); ++k)
    for (std::size_t l = 0; l < out.rows(); ++l) out(k, l) = reader.next_double();
  return out;
}

}  // namespace

NetworkSpec network_spec_from_text(const std::string& text) {
  TokenReader reader(text);
  if (reader.next() != "geomap-network")
    throw InvalidArgument("network spec: missing 'geomap-network' header");
  if (reader.next() != "1")
    throw InvalidArgument("network spec: unsupported version");
  if (reader.next() != "sites")
    throw InvalidArgument("network spec: expected 'sites'");
  const int m = reader.next_int(1, 99999, "site count");
  // The two required matrices hold 2·M² numbers of at least one character
  // and a separator each; a header the rest of the text cannot back is
  // refused before anything is sized by it.
  const std::uint64_t cells = static_cast<std::uint64_t>(m) * m;
  GEOMAP_CHECK_ARG(4 * cells <= reader.remaining() + 1,
                   "network spec: " << m << " sites need " << 2 * cells
                                    << " matrix entries, more than the "
                                       "text holds");

  Matrix lat, bw;
  NetworkSpec spec;
  std::set<std::string> seen;
  std::string section;
  while (!(section = reader.token()).empty()) {
    if (!seen.insert(section).second)
      throw InvalidArgument("network spec: repeated section '" + section + "'");
    if (section == "latency-seconds") {
      lat = read_matrix(reader, m);
    } else if (section == "bandwidth-bytes-per-second") {
      bw = read_matrix(reader, m);
    } else if (section == "capacities") {
      spec.capacities.resize(static_cast<std::size_t>(m));
      for (int& c : spec.capacities)
        c = reader.next_int(0, std::numeric_limits<int>::max(), "capacity");
    } else if (section == "coordinates") {
      spec.coords.resize(static_cast<std::size_t>(m));
      for (GeoCoordinate& c : spec.coords) {
        c.latitude_deg = reader.next_double();
        c.longitude_deg = reader.next_double();
      }
    } else if (section == "names") {
      spec.site_names.resize(static_cast<std::size_t>(m));
      for (std::string& name : spec.site_names) name = reader.next_quoted();
    } else {
      throw InvalidArgument("network spec: unknown section '" + section + "'");
    }
  }
  if (lat.empty() || bw.empty())
    throw InvalidArgument(
        "network spec: latency-seconds and bandwidth-bytes-per-second "
        "sections are required");
  spec.model = NetworkModel(std::move(lat), std::move(bw));
  return spec;
}

}  // namespace geomap::net

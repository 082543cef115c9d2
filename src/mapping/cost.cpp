#include "mapping/cost.h"

#include "common/error.h"

namespace geomap::mapping {

Seconds alpha_beta_cost(const trace::CommMatrix& comm,
                        const net::NetworkModel& model,
                        const Mapping& mapping) {
  GEOMAP_CHECK_MSG(static_cast<int>(mapping.size()) == comm.num_processes(),
                   "mapping size mismatch");
  Seconds total = 0;
  for (ProcessId i = 0; i < comm.num_processes(); ++i) {
    const SiteId si = mapping[static_cast<std::size_t>(i)];
    const trace::CommMatrix::Row row = comm.row(i);
    for (std::size_t k = 0; k < row.size(); ++k) {
      const SiteId sj = mapping[static_cast<std::size_t>(row.dst[k])];
      total += model.message_cost(si, sj, row.count[k], row.volume[k]);
    }
  }
  return total;
}

Seconds CostEvaluator::total_cost(const Mapping& mapping) const {
  return alpha_beta_cost(p_->comm, p_->network, mapping);
}

CostBreakdown CostEvaluator::breakdown(const Mapping& mapping) const {
  const int n = p_->num_processes();
  GEOMAP_CHECK_MSG(static_cast<int>(mapping.size()) == n,
                   "mapping size mismatch");
  CostBreakdown b;
  b.num_sites = p_->network.num_sites();
  const auto cells = static_cast<std::size_t>(b.num_sites) *
                     static_cast<std::size_t>(b.num_sites);
  b.alpha.assign(cells, 0.0);
  b.beta.assign(cells, 0.0);
  b.messages.assign(cells, 0.0);
  b.bytes.assign(cells, 0.0);
  // Same edge order and per-edge arithmetic as total_cost: the running
  // total reproduces it bit-for-bit, and the pair cells just receive the
  // two addends of each edge separately.
  for (ProcessId i = 0; i < n; ++i) {
    const SiteId si = mapping[static_cast<std::size_t>(i)];
    const trace::CommMatrix::Row out = p_->comm.row(i);
    for (std::size_t k = 0; k < out.size(); ++k) {
      const SiteId sj = mapping[static_cast<std::size_t>(out.dst[k])];
      b.total += edge_cost(si, sj, out.volume[k], out.count[k]);
      const std::size_t cell =
          static_cast<std::size_t>(si) * static_cast<std::size_t>(b.num_sites) +
          static_cast<std::size_t>(sj);
      b.alpha[cell] += out.count[k] * p_->network.latency(si, sj);
      b.beta[cell] += out.volume[k] / p_->network.bandwidth(si, sj);
      b.messages[cell] += out.count[k];
      b.bytes[cell] += out.volume[k];
    }
  }
  return b;
}

Seconds CostEvaluator::incident_cost(const Mapping& mapping,
                                     ProcessId i) const {
  const SiteId si = mapping[static_cast<std::size_t>(i)];
  Seconds total = 0;
  const trace::CommMatrix::Row out = p_->comm.row(i);
  for (std::size_t k = 0; k < out.size(); ++k) {
    const SiteId sj = mapping[static_cast<std::size_t>(out.dst[k])];
    total += edge_cost(si, sj, out.volume[k], out.count[k]);
  }
  const trace::CommMatrix::Row in = p_->comm.in_row(i);
  for (std::size_t k = 0; k < in.size(); ++k) {
    const SiteId sj = mapping[static_cast<std::size_t>(in.dst[k])];
    total += edge_cost(sj, si, in.volume[k], in.count[k]);
  }
  return total;
}

Seconds CostEvaluator::delta_move(const Mapping& mapping, ProcessId i,
                                  SiteId to) const {
  const SiteId from = mapping[static_cast<std::size_t>(i)];
  if (from == to) return 0.0;
  Seconds delta = 0;
  const trace::CommMatrix::Row out = p_->comm.row(i);
  for (std::size_t k = 0; k < out.size(); ++k) {
    const SiteId sj = mapping[static_cast<std::size_t>(out.dst[k])];
    delta += edge_cost(to, sj, out.volume[k], out.count[k]) -
             edge_cost(from, sj, out.volume[k], out.count[k]);
  }
  const trace::CommMatrix::Row in = p_->comm.in_row(i);
  for (std::size_t k = 0; k < in.size(); ++k) {
    const SiteId sj = mapping[static_cast<std::size_t>(in.dst[k])];
    delta += edge_cost(sj, to, in.volume[k], in.count[k]) -
             edge_cost(sj, from, in.volume[k], in.count[k]);
  }
  return delta;
}

Seconds CostEvaluator::delta_swap(Mapping& mapping, ProcessId a,
                                  ProcessId b) const {
  const SiteId sa = mapping[static_cast<std::size_t>(a)];
  const SiteId sb = mapping[static_cast<std::size_t>(b)];
  if (sa == sb) return 0.0;
  const Seconds d1 = delta_move(mapping, a, sb);
  mapping[static_cast<std::size_t>(a)] = sb;
  const Seconds d2 = delta_move(mapping, b, sa);
  mapping[static_cast<std::size_t>(a)] = sa;
  return d1 + d2;
}

}  // namespace geomap::mapping

#pragma once
// The comparison-sort CSR builder that CommMatrix::Builder::build's
// counting passes replaced, kept as their differential oracle. It sorts
// three times — the messages by (src, dst), a copy of the coalesced edges
// by (dst, src) for the transpose, and the canonical (min, max) halves for
// the undirected view — coalescing after the first and the last. The sorts
// are stable, so a repeated (src, dst) pair sums its volumes and counts in
// recording order: the order build() documents.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "trace/comm_matrix.h"

namespace geomap::testutil {

/// The three CSR views, process traffic and totals of one pattern, in
/// plain arrays shaped like CommMatrix's.
struct OracleCsr {
  struct View {
    std::vector<std::size_t> begin;  // N + 1 row offsets
    std::vector<ProcessId> id;
    std::vector<Bytes> volume;
    std::vector<double> count;  // empty in the undirected view
  };
  int n = 0;
  View out;         // row(i): dst ascending
  View in;          // in_row(i): src ascending
  View undirected;  // undirected_row(i): neighbour ascending, no counts
  std::vector<Bytes> traffic;
  Bytes total_volume = 0;
  double total_messages = 0;
};

/// Builds the views from `messages` in recording order, dropping
/// self-messages as CommMatrix::Builder::add_message does.
inline OracleCsr oracle_csr(int n, std::vector<trace::CommEdge> messages) {
  using trace::CommEdge;
  const auto slot = [](ProcessId id) { return static_cast<std::size_t>(id); };
  std::erase_if(messages, [](const CommEdge& e) { return e.src == e.dst; });

  std::stable_sort(messages.begin(), messages.end(),
                   [](const CommEdge& a, const CommEdge& b) {
                     return a.src != b.src ? a.src < b.src : a.dst < b.dst;
                   });
  std::vector<CommEdge> unique;
  unique.reserve(messages.size());
  for (const CommEdge& e : messages) {
    if (!unique.empty() && unique.back().src == e.src &&
        unique.back().dst == e.dst) {
      unique.back().volume += e.volume;
      unique.back().count += e.count;
    } else {
      unique.push_back(e);
    }
  }
  std::vector<CommEdge>().swap(messages);

  OracleCsr o;
  o.n = n;
  const auto fill_view = [&](OracleCsr::View& v,
                             const std::vector<CommEdge>& sorted, auto row_of,
                             auto id_of) {
    v.begin.assign(slot(n) + 1, 0);
    for (const CommEdge& e : sorted) ++v.begin[slot(row_of(e)) + 1];
    for (std::size_t i = 1; i < v.begin.size(); ++i)
      v.begin[i] += v.begin[i - 1];
    for (const CommEdge& e : sorted) {
      v.id.push_back(id_of(e));
      v.volume.push_back(e.volume);
      v.count.push_back(e.count);
    }
  };

  fill_view(o.out, unique, [](const CommEdge& e) { return e.src; },
            [](const CommEdge& e) { return e.dst; });
  for (const CommEdge& e : unique) {
    o.total_volume += e.volume;
    o.total_messages += e.count;
  }

  {
    std::vector<CommEdge> by_dst = unique;
    std::stable_sort(by_dst.begin(), by_dst.end(),
                     [](const CommEdge& a, const CommEdge& b) {
                       return a.dst != b.dst ? a.dst < b.dst : a.src < b.src;
                     });
    fill_view(o.in, by_dst, [](const CommEdge& e) { return e.dst; },
              [](const CommEdge& e) { return e.src; });
  }

  // Undirected: one (min, max) half per directed edge, sorted, the two
  // directions of a pair coalesced, then scattered to both endpoints. The
  // view keeps volumes only.
  std::vector<CommEdge> merged;
  {
    std::vector<CommEdge> half;
    half.reserve(unique.size());
    for (const CommEdge& e : unique) {
      half.push_back(CommEdge{std::min(e.src, e.dst), std::max(e.src, e.dst),
                              e.volume, e.count});
    }
    std::vector<CommEdge>().swap(unique);
    std::stable_sort(half.begin(), half.end(),
                     [](const CommEdge& a, const CommEdge& b) {
                       return a.src != b.src ? a.src < b.src : a.dst < b.dst;
                     });
    merged.reserve(half.size());
    for (const CommEdge& e : half) {
      if (!merged.empty() && merged.back().src == e.src &&
          merged.back().dst == e.dst) {
        merged.back().volume += e.volume;
      } else {
        merged.push_back(e);
      }
    }
  }
  OracleCsr::View& u = o.undirected;
  u.begin.assign(slot(n) + 1, 0);
  o.traffic.assign(slot(n), 0.0);
  for (const CommEdge& e : merged) {
    ++u.begin[slot(e.src) + 1];
    ++u.begin[slot(e.dst) + 1];
    o.traffic[slot(e.src)] += e.volume;
    o.traffic[slot(e.dst)] += e.volume;
  }
  for (std::size_t i = 1; i < u.begin.size(); ++i) u.begin[i] += u.begin[i - 1];
  u.id.resize(u.begin.back());
  u.volume.resize(u.begin.back());
  std::vector<std::size_t> cursor(u.begin.begin(), u.begin.end() - 1);
  for (const CommEdge& e : merged) {
    const auto put = [&](ProcessId from, ProcessId to) {
      const std::size_t pos = cursor[slot(from)]++;
      u.id[pos] = to;
      u.volume[pos] = e.volume;
    };
    put(e.src, e.dst);
    put(e.dst, e.src);
  }
  return o;
}

}  // namespace geomap::testutil

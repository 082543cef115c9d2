// Differential tests: CommMatrix::Builder::build's counting passes
// against the stable three-sort oracle in comm_matrix_oracle.h. Every
// view (ids, volumes, and counts where the view keeps them; the
// undirected view keeps none), process_traffic and both totals must match
// bit for bit — compared as bit patterns, not with ==, so not even the
// sign of a zero may differ — on random patterns with self-messages and
// empty rows, a single process, a pair repeated with non-integer volumes,
// every app pattern at several N, and LU at the benchmark's N = 2^17.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "apps/app.h"
#include "common/rng.h"
#include "comm_matrix_oracle.h"
#include "trace/comm_matrix.h"

namespace geomap::trace {
namespace {

using testutil::OracleCsr;
using testutil::oracle_csr;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

template <typename T>
bool same_bits(std::span<const T> got, const std::vector<T>& want,
               std::size_t at) {
  return got.empty() ||
         std::memcmp(got.data(), want.data() + at, got.size_bytes()) == 0;
}

/// Compares row i's ids and volumes and, where the view keeps them, its
/// counts; a view without counts must return an empty count span.
std::string view_difference(const char* name, ProcessId i,
                            const CommMatrix::Row& got,
                            const OracleCsr::View& want) {
  const std::size_t b = want.begin[static_cast<std::size_t>(i)];
  const std::size_t e = want.begin[static_cast<std::size_t>(i) + 1];
  const bool counts_match = want.count.empty()
                                ? got.count.empty()
                                : got.count.size() == e - b &&
                                      same_bits(got.count, want.count, b);
  if (got.size() == e - b && got.volume.size() == e - b &&
      same_bits(got.dst, want.id, b) &&
      same_bits(got.volume, want.volume, b) && counts_match) {
    return "";
  }
  return std::string(name) + "(" + std::to_string(i) + ")";
}

/// Empty when `m` matches the oracle bit for bit, else the first output
/// that differs.
std::string first_difference(const CommMatrix& m, const OracleCsr& o) {
  if (m.num_processes() != o.n) return "num_processes";
  if (m.nnz() != o.out.id.size()) return "nnz";
  for (ProcessId i = 0; i < o.n; ++i) {
    for (const std::string& diff :
         {view_difference("row", i, m.row(i), o.out),
          view_difference("in_row", i, m.in_row(i), o.in),
          view_difference("undirected_row", i, m.undirected_row(i),
                          o.undirected)}) {
      if (!diff.empty()) return diff;
    }
    if (!same_bits(m.process_traffic(i),
                   o.traffic[static_cast<std::size_t>(i)])) {
      return "process_traffic(" + std::to_string(i) + ")";
    }
  }
  if (!same_bits(m.total_volume(), o.total_volume)) return "total_volume";
  if (!same_bits(m.total_messages(), o.total_messages))
    return "total_messages";
  return "";
}

/// Records `messages` in order into a Builder and the oracle; their
/// outputs must agree bit for bit.
void expect_matches_oracle(int n, const std::vector<CommEdge>& messages) {
  CommMatrix::Builder b(n);
  for (const CommEdge& e : messages)
    b.add_message(e.src, e.dst, e.volume, e.count);
  const CommMatrix m = b.build();
  EXPECT_EQ(first_difference(m, oracle_csr(n, messages)), "")
      << "N=" << n << ", " << messages.size() << " messages";
}

/// The pattern's edges, each recorded as 1-3 contributions with
/// non-integer volumes and counts, shuffled, with self-messages mixed in:
/// the builder must sum a pair's contributions in recording order, as the
/// oracle does.
std::vector<CommEdge> split_and_shuffle(const CommMatrix& pattern, Rng& rng) {
  std::vector<CommEdge> stream;
  for (const CommEdge& e : pattern.edges()) {
    const int parts = 1 + static_cast<int>(rng.uniform_index(3));
    for (int k = 0; k < parts; ++k) {
      const double share = k + 1 == parts ? 1.0 / parts : rng.uniform(0.1, 0.9);
      stream.push_back(
          CommEdge{e.src, e.dst, e.volume * share, e.count * share});
    }
    if (rng.uniform() < 0.05)
      stream.push_back(CommEdge{e.src, e.src, e.volume, e.count});
  }
  rng.shuffle(stream);
  return stream;
}

TEST(CommMatrixOracle, RandomPatternsWithSelfEdgesAndEmptyRows) {
  Rng rng(2201);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 1 + static_cast<int>(rng.uniform_index(60));
    // Only "active" processes communicate, so the rest have empty out-,
    // in- and undirected rows.
    std::vector<ProcessId> active;
    for (ProcessId i = 0; i < n; ++i)
      if (rng.uniform() < 0.6) active.push_back(i);
    std::vector<CommEdge> messages;
    const auto pick = [&] {
      return active[static_cast<std::size_t>(rng.uniform_index(active.size()))];
    };
    const int count = active.empty() ? 0 : static_cast<int>(rng.uniform_index(400));
    for (int k = 0; k < count; ++k) {
      const ProcessId src = pick();
      const ProcessId dst = rng.uniform() < 0.1 ? src : pick();
      const double volume = rng.uniform() < 0.05 ? 0.0 : rng.uniform(0, 1e6);
      messages.push_back(CommEdge{src, dst, volume, rng.uniform(0.5, 10)});
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_matches_oracle(n, messages);
  }
}

TEST(CommMatrixOracle, SingleProcess) {
  expect_matches_oracle(1, {});
  expect_matches_oracle(1, {CommEdge{0, 0, 12.5, 1}, CommEdge{0, 0, 3, 2}});
  CommMatrix::Builder b(1);
  b.add_message(0, 0, 7);
  const CommMatrix m = b.build();
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_EQ(m.undirected_row(0).size(), 0u);
  EXPECT_TRUE(same_bits(m.process_traffic(0), 0.0));
}

TEST(CommMatrixOracle, RepeatedPairSumsInRecordingOrder) {
  // (0.1 + 0.2) + 0.3 and 0.1 + (0.2 + 0.3) differ in the last bit, so
  // only summing in recording order reproduces the first.
  ASSERT_FALSE(same_bits((0.1 + 0.2) + 0.3, 0.1 + (0.2 + 0.3)));
  const std::vector<CommEdge> messages = {
      {0, 1, 0.1, 0.7}, {2, 1, 5.5, 1},  {0, 1, 0.2, 0.1},
      {1, 0, 0.3, 0.2}, {0, 1, 0.3, 0.2}, {1, 0, 0.1, 0.3},
      {1, 0, 0.2, 0.1}, {0, 2, 1.25, 1}, {0, 1, 0.4, 0.3}};
  CommMatrix::Builder b(3);
  for (const CommEdge& e : messages)
    b.add_message(e.src, e.dst, e.volume, e.count);
  const CommMatrix m = b.build();
  EXPECT_TRUE(same_bits(m.volume(0, 1), ((0.1 + 0.2) + 0.3) + 0.4));
  EXPECT_TRUE(same_bits(m.count(0, 1), ((0.7 + 0.1) + 0.2) + 0.3));
  EXPECT_TRUE(same_bits(m.volume(1, 0), (0.3 + 0.1) + 0.2));
  EXPECT_TRUE(same_bits(m.in_row(1).volume[0], m.volume(0, 1)));
  EXPECT_TRUE(same_bits(m.undirected_row(0).volume[0],
                        m.volume(0, 1) + m.volume(1, 0)));
  expect_matches_oracle(3, messages);
}

TEST(CommMatrixOracle, AppPatternsAtSeveralSizes) {
  Rng rng(2202);
  for (const apps::App* app : apps::extended_apps()) {
    for (const int n : {2, 7, 64, 300}) {
      SCOPED_TRACE(app->name() + " N=" + std::to_string(n));
      const CommMatrix pattern =
          app->synthetic_pattern(n, app->default_config(n));
      EXPECT_EQ(first_difference(pattern, oracle_csr(n, pattern.edges())), "");
      expect_matches_oracle(n, split_and_shuffle(pattern, rng));
    }
  }
}

TEST(CommMatrixOracle, LuAtBenchmarkScale) {
  const int n = 1 << 17;
  const apps::App& lu = apps::app_by_name("LU");
  const CommMatrix pattern = lu.synthetic_pattern(n, lu.default_config(n));
  EXPECT_EQ(first_difference(pattern, oracle_csr(n, pattern.edges())), "");
}

}  // namespace
}  // namespace geomap::trace

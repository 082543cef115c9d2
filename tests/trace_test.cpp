// Tests for the trace substrate: CommMatrix CSR invariants, the
// CYPRESS-like loop-compressing recorder, and profile building.

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "trace/comm_matrix.h"
#include "trace/profile.h"
#include "trace/recorder.h"

namespace geomap::trace {
namespace {

CommMatrix small_matrix() {
  CommMatrix::Builder b(4);
  b.add_message(0, 1, 100);
  b.add_message(0, 1, 50);   // coalesces with the first
  b.add_message(1, 0, 30);
  b.add_message(2, 3, 8, 2.0);
  return b.build();
}

TEST(CommMatrix, CoalescesDuplicateEdges) {
  const CommMatrix m = small_matrix();
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_DOUBLE_EQ(m.volume(0, 1), 150.0);
  EXPECT_DOUBLE_EQ(m.count(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.volume(2, 3), 8.0);
  EXPECT_DOUBLE_EQ(m.count(2, 3), 2.0);
  EXPECT_DOUBLE_EQ(m.volume(1, 2), 0.0);
  EXPECT_DOUBLE_EQ(m.total_volume(), 188.0);
}

TEST(CommMatrix, SelfMessagesDropped) {
  CommMatrix::Builder b(2);
  b.add_message(1, 1, 1000);
  b.add_message(0, 1, 10);
  const CommMatrix m = b.build();
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_DOUBLE_EQ(m.total_volume(), 10.0);
}

TEST(CommMatrix, RowAndInRowAreTransposes) {
  const CommMatrix m = small_matrix();
  const CommMatrix::Row out0 = m.row(0);
  ASSERT_EQ(out0.size(), 1u);
  EXPECT_EQ(out0.dst[0], 1);
  const CommMatrix::Row in1 = m.in_row(1);
  ASSERT_EQ(in1.size(), 1u);
  EXPECT_EQ(in1.dst[0], 0);  // source process
  EXPECT_DOUBLE_EQ(in1.volume[0], 150.0);
}

TEST(CommMatrix, UndirectedRowMergesBothDirections) {
  const CommMatrix m = small_matrix();
  const CommMatrix::Row u0 = m.undirected_row(0);
  ASSERT_EQ(u0.size(), 1u);
  EXPECT_EQ(u0.dst[0], 1);
  EXPECT_DOUBLE_EQ(u0.volume[0], 180.0);  // 150 + 30
  const CommMatrix::Row u1 = m.undirected_row(1);
  ASSERT_EQ(u1.size(), 1u);
  EXPECT_DOUBLE_EQ(u1.volume[0], 180.0);
}

TEST(CommMatrix, ProcessTrafficIsUndirectedRowSum) {
  const CommMatrix m = small_matrix();
  EXPECT_DOUBLE_EQ(m.process_traffic(0), 180.0);
  EXPECT_DOUBLE_EQ(m.process_traffic(1), 180.0);
  EXPECT_DOUBLE_EQ(m.process_traffic(2), 8.0);
  EXPECT_DOUBLE_EQ(m.process_traffic(3), 8.0);
}

TEST(CommMatrix, TextRoundTrip) {
  const CommMatrix m = small_matrix();
  const CommMatrix back = CommMatrix::from_text(m.to_text());
  EXPECT_EQ(back.num_processes(), m.num_processes());
  EXPECT_EQ(back.nnz(), m.nnz());
  EXPECT_DOUBLE_EQ(back.volume(0, 1), 150.0);
  EXPECT_DOUBLE_EQ(back.count(2, 3), 2.0);
}

TEST(CommMatrix, RejectsBadInput) {
  EXPECT_THROW(CommMatrix::Builder(0), Error);
  CommMatrix::Builder b(2);
  EXPECT_THROW(b.add_message(-1, 0, 1), Error);
  EXPECT_THROW(b.add_message(0, 2, 1), Error);
  EXPECT_THROW(b.add_message(0, 1, -5), Error);
  EXPECT_THROW(CommMatrix::from_text("garbage 2 1"), Error);
}

TEST(CommMatrix, RandomizedCsrInvariants) {
  Rng rng(71);
  CommMatrix::Builder b(50);
  double expected_volume = 0;
  for (int e = 0; e < 2000; ++e) {
    const auto i = static_cast<ProcessId>(rng.uniform_index(50));
    const auto j = static_cast<ProcessId>(rng.uniform_index(50));
    const double bytes = rng.uniform(1, 1000);
    if (i != j) expected_volume += bytes;
    b.add_message(i, j, bytes);
  }
  const CommMatrix m = b.build();
  EXPECT_NEAR(m.total_volume(), expected_volume, 1e-6);
  // Row destinations strictly ascending; volumes positive.
  double row_total = 0;
  for (ProcessId i = 0; i < 50; ++i) {
    const CommMatrix::Row row = m.row(i);
    for (std::size_t k = 0; k < row.size(); ++k) {
      if (k > 0) {
        EXPECT_LT(row.dst[k - 1], row.dst[k]);
      }
      EXPECT_GT(row.volume[k], 0);
      row_total += row.volume[k];
    }
  }
  EXPECT_NEAR(row_total, expected_volume, 1e-6);
  // Undirected degree sum equals 2x directed pair count.
  double undirected_total = 0;
  for (ProcessId i = 0; i < 50; ++i) {
    const CommMatrix::Row u = m.undirected_row(i);
    for (std::size_t k = 0; k < u.size(); ++k) undirected_total += u.volume[k];
  }
  EXPECT_NEAR(undirected_total, 2 * expected_volume, 1e-6);
}

TEST(Recorder, CompressionRoundTripsExactly) {
  Recorder rec;
  Rng rng(5);
  // A loopy trace: 50 iterations of a fixed 4-message pattern with
  // occasional irregular messages.
  for (int iter = 0; iter < 50; ++iter) {
    rec.record_send(1, 1024);
    rec.record_send(2, 2048);
    rec.record_send(1, 1024);
    rec.record_send(3, 512);
    if (iter % 10 == 0)
      rec.record_send(static_cast<ProcessId>(rng.uniform_index(8)), 64);
  }
  const CompressedTrace t = rec.compress();
  EXPECT_EQ(t.expand(), rec.raw());
  EXPECT_EQ(t.expanded_size(), rec.size());
}

TEST(Recorder, PureLoopCompressesWell) {
  Recorder rec;
  for (int iter = 0; iter < 100; ++iter) {
    rec.record_send(1, 43 * 1024);
    rec.record_send(8, 83 * 1024);
  }
  const CompressedTrace t = rec.compress();
  EXPECT_EQ(t.expand(), rec.raw());
  EXPECT_GE(t.compression_ratio(), 50.0);
  EXPECT_LE(t.segments.size(), 2u);
}

TEST(Recorder, IncompressibleTraceStaysLiteral) {
  Recorder rec;
  for (int i = 0; i < 64; ++i)
    rec.record_send(i % 7, 100.0 * i + 1);  // all distinct
  const CompressedTrace t = rec.compress();
  EXPECT_EQ(t.expand(), rec.raw());
  EXPECT_DOUBLE_EQ(t.compression_ratio(), 1.0);
}

TEST(Recorder, EmptyTrace) {
  Recorder rec;
  const CompressedTrace t = rec.compress();
  EXPECT_EQ(t.expanded_size(), 0u);
  EXPECT_TRUE(t.expand().empty());
}

TEST(Profile, BuildsCommMatrixFromRecords) {
  ApplicationProfile profile(3);
  profile.recorder(0).record_send(1, 100);
  profile.recorder(0).record_send(1, 100);
  profile.recorder(1).record_send(2, 50);
  const CommMatrix m = profile.build_comm_matrix();
  EXPECT_EQ(m.num_processes(), 3);
  EXPECT_DOUBLE_EQ(m.volume(0, 1), 200.0);
  EXPECT_DOUBLE_EQ(m.count(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.volume(1, 2), 50.0);
  EXPECT_EQ(profile.total_records(), 3u);
}

TEST(Profile, AggregateCompressionRatio) {
  ApplicationProfile profile(2);
  for (int i = 0; i < 40; ++i) profile.recorder(0).record_send(1, 8);
  EXPECT_GE(profile.aggregate_compression_ratio(), 20.0);
}

}  // namespace
}  // namespace geomap::trace

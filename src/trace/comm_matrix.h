#pragma once
// The application communication pattern: the paper's CG (pairwise volume,
// bytes) and AG (pairwise message count) N×N matrices.
//
// Real patterns are sparse — NPB LU/BT/SP talk to O(1) neighbours per
// process (paper Figure 3 shows near-diagonal matrices) — and N reaches
// 8192 in the scale experiments, so a dense N×N double matrix (0.5 GB)
// is the wrong representation. CommMatrix stores both matrices in one CSR
// structure: CG and AG share their sparsity pattern because every message
// contributes to both. Three views of it are kept — out-edges, in-edges
// and the undirected sum — all built in O(nnz + N) by Builder::build().

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace geomap::trace {

/// One nonzero of the pattern: process `src` sends `count` messages
/// totalling `volume` bytes to process `dst`.
struct CommEdge {
  ProcessId src = 0;
  ProcessId dst = 0;
  Bytes volume = 0;
  double count = 0;
};

class CommMatrix {
 public:
  /// Accumulates (src, dst, bytes) contributions, then freezes into CSR.
  class Builder {
   public:
    explicit Builder(int num_processes);

    /// Record one message of `bytes` from src to dst. Repeated pairs
    /// accumulate. `messages` lets callers add a batch at once.
    void add_message(ProcessId src, ProcessId dst, Bytes bytes,
                     double messages = 1.0);

    int num_processes() const { return n_; }

    /// Freeze into an immutable CommMatrix. The builder is left empty.
    /// O(E + N) time for E recorded messages: counting passes over the
    /// dense process ids bucket the messages stably by dst, then by src,
    /// so repeated (src, dst) pairs coalesce by summing their volumes and
    /// counts in the order add_message recorded them.
    CommMatrix build();

   private:
    int n_ = 0;
    // Messages in recording order, coalesced at build() time.
    std::vector<CommEdge> edges_;
  };

  CommMatrix() = default;

  int num_processes() const { return n_; }
  std::size_t nnz() const { return dst_.size(); }
  Bytes total_volume() const { return total_volume_; }
  double total_messages() const { return total_messages_; }

  /// Neighbours of process i (ascending dst). Spans index the CSR arrays.
  struct Row {
    std::span<const ProcessId> dst;
    std::span<const Bytes> volume;
    std::span<const double> count;
    std::size_t size() const { return dst.size(); }
  };
  Row row(ProcessId i) const;

  /// Point lookup (binary search within row). Returns 0s when absent.
  Bytes volume(ProcessId i, ProcessId j) const;
  double count(ProcessId i, ProcessId j) const;

  /// Total bytes process i exchanges (sent plus received) — the paper's
  /// "communication quantity" used to pick the heaviest process.
  Bytes process_traffic(ProcessId i) const { return traffic_[static_cast<std::size_t>(i)]; }

  /// In-edges of process i: Row.dst holds the *source* processes j with
  /// volume/count of the directed edge j -> i. Needed because LT/BT are
  /// asymmetric, so incremental cost updates must see both directions.
  Row in_row(ProcessId i) const;

  /// All nonzero edges, row-major.
  std::vector<CommEdge> edges() const;

  /// The undirected view i<->j used by greedy affinity updates: for each i,
  /// neighbours j (ascending) with combined weight volume(i,j)+volume(j,i)
  /// and count likewise. Built by build(), alongside the other two views.
  Row undirected_row(ProcessId i) const;

  /// Resident bytes of the three CSR views (directed, transposed,
  /// undirected) — what obs::MemTracker charges to the "comm.csr"
  /// account. Deterministic for a given pattern (capacity slack excluded
  /// on purpose).
  std::size_t memory_bytes() const {
    const std::size_t offsets =
        (row_begin_.size() + t_row_begin_.size() + u_row_begin_.size()) *
        sizeof(std::size_t);
    const std::size_t ids =
        (dst_.size() + t_src_.size() + u_dst_.size()) * sizeof(ProcessId);
    const std::size_t weights =
        (volume_.size() + t_volume_.size() + u_volume_.size()) *
            sizeof(Bytes) +
        (count_.size() + t_count_.size() + u_count_.size()) * sizeof(double);
    return offsets + ids + weights + traffic_.size() * sizeof(Bytes);
  }

  /// Serialize as "src dst volume count" lines after a
  /// "commmatrix <N> <nnz>" header.
  std::string to_text() const;

  /// Parse to_text() output. Throws geomap::Error on any malformed input:
  /// an unreadable header, N outside [1, kMaxTextProcesses] (checked
  /// before anything is allocated, since the CSR offsets alone take
  /// O(N) memory), a truncated or out-of-range record, or trailing
  /// non-whitespace after the nnz records.
  static CommMatrix from_text(const std::string& text);

  /// Largest N from_text accepts: 2^22 processes, 32x the 2^17-process
  /// pattern of the map_large_n benchmark workload.
  static constexpr int kMaxTextProcesses = 1 << 22;

 private:
  friend class Builder;

  int n_ = 0;
  // Directed CSR.
  std::vector<std::size_t> row_begin_;  // n_+1
  std::vector<ProcessId> dst_;
  std::vector<Bytes> volume_;
  std::vector<double> count_;
  // Transposed CSR (in-edges).
  std::vector<std::size_t> t_row_begin_;
  std::vector<ProcessId> t_src_;
  std::vector<Bytes> t_volume_;
  std::vector<double> t_count_;
  // Undirected CSR (symmetrized weights), for affinity scans.
  std::vector<std::size_t> u_row_begin_;
  std::vector<ProcessId> u_dst_;
  std::vector<Bytes> u_volume_;
  std::vector<double> u_count_;

  std::vector<Bytes> traffic_;  // per-process total undirected volume
  Bytes total_volume_ = 0;
  double total_messages_ = 0;
};

}  // namespace geomap::trace

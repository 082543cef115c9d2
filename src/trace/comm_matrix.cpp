#include "trace/comm_matrix.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"

namespace geomap::trace {

CommMatrix::Builder::Builder(int num_processes) : n_(num_processes) {
  GEOMAP_CHECK_MSG(num_processes > 0, "num_processes=" << num_processes);
}

void CommMatrix::Builder::add_message(ProcessId src, ProcessId dst,
                                      Bytes bytes, double messages) {
  GEOMAP_CHECK_MSG(src >= 0 && src < n_, "src=" << src << " N=" << n_);
  GEOMAP_CHECK_MSG(dst >= 0 && dst < n_, "dst=" << dst << " N=" << n_);
  GEOMAP_CHECK_MSG(bytes >= 0, "bytes=" << bytes);
  GEOMAP_CHECK_MSG(messages > 0, "messages=" << messages);
  if (src == dst) return;  // self-communication is free in the model
  edges_.push_back(CommEdge{src, dst, bytes, messages});
}

namespace {

std::size_t at(ProcessId id) { return static_cast<std::size_t>(id); }

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

void prefix_sum(std::vector<std::size_t>& v) {
  for (std::size_t i = 1; i < v.size(); ++i) v[i] += v[i - 1];
}

/// Visits the union of two rows, both ascending by id, in ascending id
/// order; an id present in both gets the sum of its two weights.
template <typename Emit>
void merge_rows(const CommMatrix::Row& a, const CommMatrix::Row& b,
                Emit&& emit) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a.dst[i] < b.dst[j])) {
      emit(a.dst[i], a.volume[i], a.count[i]);
      ++i;
    } else if (i == a.size() || b.dst[j] < a.dst[i]) {
      emit(b.dst[j], b.volume[j], b.count[j]);
      ++j;
    } else {
      emit(a.dst[i], a.volume[i] + b.volume[j], a.count[i] + b.count[j]);
      ++i;
      ++j;
    }
  }
}

}  // namespace

// Every pass is a counting pass over the dense ids in [0, N). Offset
// arrays of N + 2 slots take counts at [id + 2]; after the prefix sum,
// [id + 1] is the id's next free slot, so placing each entry at
// [id + 1]++ leaves [0, N] as the CSR offsets and the spare slot is
// popped.
CommMatrix CommMatrix::Builder::build() {
  const auto n = static_cast<std::size_t>(n_);
  CommMatrix m;
  m.n_ = n_;

  // 1. Bucket the messages stably by dst and release the edge list. The
  //    bucket offsets borrow t_row_begin_ until step 4 recounts it.
  std::vector<std::size_t>& bucket = m.t_row_begin_;
  bucket.assign(n + 2, 0);
  for (const CommEdge& e : edges_) ++bucket[at(e.dst) + 2];
  prefix_sum(bucket);
  std::vector<ProcessId> src(edges_.size());
  std::vector<Bytes> volume(edges_.size());
  std::vector<double> count(edges_.size());
  for (const CommEdge& e : edges_) {
    const std::size_t pos = bucket[at(e.dst) + 1]++;
    src[pos] = e.src;
    volume[pos] = e.volume;
    count[pos] = e.count;
  }
  std::vector<CommEdge>().swap(edges_);
  bucket.pop_back();

  // 2. Size the rows: count each source's distinct dsts. The buckets are
  //    walked in dst order, so all repeats of a pair fall in one bucket
  //    and a per-source "last dst seen" mark spots its first occurrence.
  //    The mark array becomes u_row_begin_ in step 5.
  std::vector<std::size_t> mark(n + 1, kNone);
  m.row_begin_.assign(n + 2, 0);
  for (std::size_t d = 0; d < n; ++d) {
    for (std::size_t k = bucket[d]; k < bucket[d + 1]; ++k) {
      const std::size_t s = at(src[k]);
      if (mark[s] == d) continue;
      mark[s] = d;
      ++m.row_begin_[s + 2];
    }
  }
  prefix_sum(m.row_begin_);

  // 3. Scatter the buckets into the source rows. A row receives its
  //    entries by ascending dst, and a pair's repeats in recording order,
  //    so the rows come out as a stable sort by (src, dst) leaves them.
  //    A repeat always lands on its row's last entry and is summed into
  //    it: duplicate contributions add up in recording order.
  const std::size_t nnz = m.row_begin_[n + 1];
  m.dst_.resize(nnz);
  m.volume_.resize(nnz);
  m.count_.resize(nnz);
  std::fill(mark.begin(), mark.end(), kNone);
  for (std::size_t d = 0; d < n; ++d) {
    for (std::size_t k = bucket[d]; k < bucket[d + 1]; ++k) {
      const std::size_t s = at(src[k]);
      if (mark[s] == d) {
        const std::size_t last = m.row_begin_[s + 1] - 1;
        m.volume_[last] += volume[k];
        m.count_[last] += count[k];
        continue;
      }
      mark[s] = d;
      const std::size_t pos = m.row_begin_[s + 1]++;
      m.dst_[pos] = static_cast<ProcessId>(d);
      m.volume_[pos] = volume[k];
      m.count_[pos] = count[k];
    }
  }
  m.row_begin_.pop_back();
  std::vector<ProcessId>().swap(src);
  std::vector<Bytes>().swap(volume);
  std::vector<double>().swap(count);

  // 4. Totals in row-major order, then the transpose scattered from the
  //    sorted rows: sources arrive ascending, so every in-row is sorted.
  std::vector<std::size_t>& t = m.t_row_begin_;
  t.assign(n + 2, 0);
  for (std::size_t k = 0; k < nnz; ++k) {
    ++t[at(m.dst_[k]) + 2];
    m.total_volume_ += m.volume_[k];
    m.total_messages_ += m.count_[k];
  }
  prefix_sum(t);
  m.t_src_.resize(nnz);
  m.t_volume_.resize(nnz);
  m.t_count_.resize(nnz);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t k = m.row_begin_[s]; k < m.row_begin_[s + 1]; ++k) {
      const std::size_t pos = t[at(m.dst_[k]) + 1]++;
      m.t_src_[pos] = static_cast<ProcessId>(s);
      m.t_volume_[pos] = m.volume_[k];
      m.t_count_[pos] = m.count_[k];
    }
  }
  t.pop_back();

  // 5. The undirected view: each out-row merged with its in-row, the two
  //    directions of a pair summed (a two-term sum, so which direction
  //    comes first cannot change its bits). A process's traffic sums its
  //    undirected row in ascending neighbour order.
  std::vector<std::size_t>& u = mark;
  u.assign(n + 1, 0);
  for (ProcessId i = 0; i < n_; ++i) {
    merge_rows(m.row(i), m.in_row(i),
               [&](ProcessId, Bytes, double) { ++u[at(i) + 1]; });
  }
  prefix_sum(u);
  m.u_dst_.resize(u[n]);
  m.u_volume_.resize(u[n]);
  m.u_count_.resize(u[n]);
  m.traffic_.assign(n, 0.0);
  for (ProcessId i = 0; i < n_; ++i) {
    std::size_t pos = u[at(i)];
    merge_rows(m.row(i), m.in_row(i), [&](ProcessId j, Bytes v, double c) {
      m.u_dst_[pos] = j;
      m.u_volume_[pos] = v;
      m.u_count_[pos] = c;
      ++pos;
      m.traffic_[at(i)] += v;
    });
  }
  m.u_row_begin_ = std::move(u);
  return m;
}

CommMatrix::Row CommMatrix::row(ProcessId i) const {
  GEOMAP_CHECK_MSG(i >= 0 && i < n_, "process " << i << " out of range");
  const std::size_t b = row_begin_[static_cast<std::size_t>(i)];
  const std::size_t e = row_begin_[static_cast<std::size_t>(i) + 1];
  return Row{std::span(dst_).subspan(b, e - b),
             std::span(volume_).subspan(b, e - b),
             std::span(count_).subspan(b, e - b)};
}

CommMatrix::Row CommMatrix::in_row(ProcessId i) const {
  GEOMAP_CHECK_MSG(i >= 0 && i < n_, "process " << i << " out of range");
  const std::size_t b = t_row_begin_[static_cast<std::size_t>(i)];
  const std::size_t e = t_row_begin_[static_cast<std::size_t>(i) + 1];
  return Row{std::span(t_src_).subspan(b, e - b),
             std::span(t_volume_).subspan(b, e - b),
             std::span(t_count_).subspan(b, e - b)};
}

CommMatrix::Row CommMatrix::undirected_row(ProcessId i) const {
  GEOMAP_CHECK_MSG(i >= 0 && i < n_, "process " << i << " out of range");
  const std::size_t b = u_row_begin_[static_cast<std::size_t>(i)];
  const std::size_t e = u_row_begin_[static_cast<std::size_t>(i) + 1];
  return Row{std::span(u_dst_).subspan(b, e - b),
             std::span(u_volume_).subspan(b, e - b),
             std::span(u_count_).subspan(b, e - b)};
}

namespace {
std::size_t find_in_row(const CommMatrix::Row& r, ProcessId j) {
  const auto it = std::lower_bound(r.dst.begin(), r.dst.end(), j);
  if (it == r.dst.end() || *it != j) return static_cast<std::size_t>(-1);
  return static_cast<std::size_t>(it - r.dst.begin());
}
}  // namespace

Bytes CommMatrix::volume(ProcessId i, ProcessId j) const {
  const Row r = row(i);
  const std::size_t k = find_in_row(r, j);
  return k == static_cast<std::size_t>(-1) ? 0.0 : r.volume[k];
}

double CommMatrix::count(ProcessId i, ProcessId j) const {
  const Row r = row(i);
  const std::size_t k = find_in_row(r, j);
  return k == static_cast<std::size_t>(-1) ? 0.0 : r.count[k];
}

std::vector<CommEdge> CommMatrix::edges() const {
  std::vector<CommEdge> out;
  out.reserve(nnz());
  for (ProcessId i = 0; i < n_; ++i) {
    const Row r = row(i);
    for (std::size_t k = 0; k < r.size(); ++k)
      out.push_back(CommEdge{i, r.dst[k], r.volume[k], r.count[k]});
  }
  return out;
}

std::string CommMatrix::to_text() const {
  std::ostringstream os;
  os << "commmatrix " << n_ << ' ' << nnz() << '\n';
  for (const CommEdge& e : edges())
    os << e.src << ' ' << e.dst << ' ' << e.volume << ' ' << e.count << '\n';
  return os.str();
}

CommMatrix CommMatrix::from_text(const std::string& text) {
  std::istringstream is(text);
  std::string magic;
  int n = 0;
  std::size_t nnz = 0;
  is >> magic >> n >> nnz;
  GEOMAP_CHECK_MSG(is && magic == "commmatrix", "bad comm matrix header");
  GEOMAP_CHECK_MSG(n > 0 && n <= kMaxTextProcesses,
                   "comm matrix N=" << n << " outside [1, "
                                    << kMaxTextProcesses << "]");
  Builder b(n);
  for (std::size_t k = 0; k < nnz; ++k) {
    CommEdge e;
    is >> e.src >> e.dst >> e.volume >> e.count;
    GEOMAP_CHECK_MSG(static_cast<bool>(is), "truncated comm matrix text");
    b.add_message(e.src, e.dst, e.volume, e.count);
  }
  char extra = 0;
  GEOMAP_CHECK_MSG(!(is >> extra), "trailing content after comm matrix text");
  return b.build();
}

}  // namespace geomap::trace

#pragma once
// Online windowed telemetry: bounded time series of (virtual-time, value)
// points keyed by metric name + label.
//
// The metrics registry (obs/metrics.h) answers "how much, in total" after
// the run; a TimeSeries answers "how much, *when*" while the run is still
// going — the input a production controller needs to notice that a link
// started degrading at t=37 without reading the injected FaultPlan. The
// runtime and the replay engines record one point per observed inter-site
// transfer (per site-pair label), the degradation detector (obs/detector.h)
// consumes the points online, and the whole registry exports as the
// `timeline` JSON artifact (--timeline-out / --obs-dir).
//
// Memory is bounded: each series is a ring of at most `capacity` points.
// When the ring overflows, the points with the *smallest virtual
// timestamps* are evicted — a deterministic policy (unlike arrival-order
// eviction, which would depend on host thread scheduling), so the
// retained set is a pure function of the recorded multiset. Export sorts
// points by (t, value); two runs recording the same points produce
// byte-identical timelines regardless of recording order.
//
// All entry points are thread-safe; rank threads record concurrently.

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"

namespace geomap {
class JsonWriter;
}

namespace geomap::obs {

struct RunMeta;

/// A closed [since, until] window on the virtual timeline, defaulting to
/// all of time. One definition of the boundary semantics every windowed
/// reader shares (obsctl's `timeline --since/--until` and `events
/// --since/--until` both filter through it): both endpoints are
/// *inclusive* — since == until selects exactly the points at that
/// instant — and since > until is a valid, empty window.
struct TimeWindow {
  Seconds since = -std::numeric_limits<Seconds>::infinity();
  Seconds until = std::numeric_limits<Seconds>::infinity();

  bool empty() const { return since > until; }
  bool contains(Seconds t) const { return t >= since && t <= until; }
  /// Does [start, end] intersect the window? An empty window intersects
  /// nothing.
  bool intersects(Seconds start, Seconds end) const {
    return !empty() && start <= until && end >= since;
  }
  Seconds clamp(Seconds t) const {
    return t < since ? since : (t > until ? until : t);
  }
};

/// One observation on a virtual timeline.
struct TimePoint {
  Seconds t = 0;
  double value = 0;

  friend bool operator<(const TimePoint& a, const TimePoint& b) {
    return a.t != b.t ? a.t < b.t : a.value < b.value;
  }
  friend bool operator==(const TimePoint& a, const TimePoint& b) {
    return a.t == b.t && a.value == b.value;
  }
};

/// Windowed aggregates over the retained points with t in
/// (t_end − window, t_end].
struct WindowStats {
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  double mean = 0;
  /// count / window — events per virtual second.
  double rate = 0;
  /// EWMA of the window's values in (t, value) order.
  double ewma = 0;
};

class TimeSeries {
 public:
  explicit TimeSeries(std::size_t capacity);

  /// Record one point (thread-safe). When the ring is past capacity the
  /// smallest-timestamp points are evicted.
  void record(Seconds t, double value);

  /// Record a batch under one lock. Eviction is a pure function of the
  /// recorded multiset, so the retained set (and the export) is identical
  /// to per-point record() calls. Hot single-threaded loops buffer
  /// locally and flush once.
  void record_many(const std::vector<TimePoint>& points);

  std::size_t capacity() const { return capacity_; }

  /// Total points ever recorded (retained + evicted).
  std::uint64_t total_recorded() const;

  /// Retained points sorted by (t, value) — at most capacity() of them,
  /// the largest timestamps recorded so far.
  std::vector<TimePoint> points() const;

  /// Aggregates over retained points in (t_end − window, t_end].
  /// `window` must be positive; `ewma_lambda` in (0, 1].
  WindowStats window(Seconds t_end, Seconds window,
                     double ewma_lambda = 0.3) const;

 private:
  /// Sort descending by (t, value) and keep the newest `capacity_`.
  /// Caller holds mutex_.
  void compact_locked();

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<TimePoint> buffer_;  // unsorted between compactions
  std::uint64_t total_ = 0;
};

/// Find-or-create registry of time series, keyed by metric name plus a
/// free-form label (site-pair links use "src->dst"). References stay
/// valid for the registry's lifetime, so hot paths resolve once and
/// record lock-free of the registry map.
class TimeSeriesRegistry {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// Ring capacity for series created after this call (existing series
  /// keep theirs). Throws InvalidArgument on zero.
  void set_default_capacity(std::size_t capacity);

  TimeSeries& series(const std::string& name, const std::string& label = "");

  /// The series' full keys ("name{label}" or bare "name"), sorted.
  std::vector<std::string> keys() const;

  /// The series under `key`, or nullptr.
  const TimeSeries* find(const std::string& key) const;

  bool empty() const;

  /// {"meta": {...}, "window_seconds": W, "series": {key: {capacity,
  /// total, dropped, last_window: {...}, points: [[t, v], ...]}}}.
  /// Keys sorted (std::map order); points sorted by (t, value) — the
  /// export is byte-identical across reruns of a deterministic workload.
  /// `last_window` aggregates the trailing `window_seconds` ending at the
  /// series' newest timestamp.
  void write_json(std::ostream& os, const RunMeta* meta = nullptr,
                  Seconds window_seconds = 10.0) const;

  /// Emit `"window_seconds": W, "series": {...}` as the next members of
  /// the currently open JSON object (shared with the timeline-artifact
  /// writer in obs/detector.h).
  void write_members(JsonWriter& w, Seconds window_seconds) const;

 private:
  mutable std::mutex mutex_;
  std::size_t default_capacity_ = kDefaultCapacity;
  std::map<std::string, std::unique_ptr<TimeSeries>> series_;
};

/// Canonical registry key for per-link series: "name{src->dst}".
std::string link_series_key(const std::string& name, int src, int dst);

/// Canonical link label "src->dst".
std::string link_label(int src, int dst);

/// Parse a "src->dst" label; returns false (and leaves outputs untouched)
/// when the label is not of that form.
bool parse_link_label(const std::string& label, int* src, int* dst);

/// Tenant label "t<k>": the lane label of per-tenant series and the
/// prefix of tenant_link_label.
std::string tenant_label(int tenant);

/// Tenant-scoped link label "t<k>:src->dst" — the multi-tenant substrate
/// records each tenant's per-link series under these so overlapping
/// migrations render as separate timeline lanes.
std::string tenant_link_label(int tenant, int src, int dst);

/// Parse a "t<k>:src->dst" label; returns false (outputs untouched) when
/// the label is not of that form. Plain "src->dst" labels return false —
/// use parse_link_label for those.
bool parse_tenant_link_label(const std::string& label, int* tenant, int* src,
                             int* dst);

}  // namespace geomap::obs

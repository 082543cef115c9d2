#pragma once
// Online degradation detection over per-link telemetry — the half of the
// observe→detect→remap loop that PR 1's remap_on_outage skipped by
// reading the injected FaultPlan directly. The detector sees only what a
// production controller would: the time series the runtime and replay
// engines record (obs/timeseries.h), namely per-site-pair observed
// latency ratios (observed wire time / calibrated healthy wire time) and
// retry / timeout events. From those it emits DegradationEvents with no
// access to the ground truth.
//
// Detection math, per ordered link:
//
//   * latency episodes — the healthy latency ratio is 1.0 by
//     construction (the calibrated model is the baseline), so a one-sided
//     CUSUM S = max(0, S + (x − 1 − k)) accumulates sustained excess over
//     the slack k and alarms at S ≥ h (S is capped at 2h, so a long
//     excursion cannot delay recovery detection arbitrarily). The
//     episode's onset is back-dated
//     to the start of the positive excursion; an EWMA of the excursion's
//     ratios estimates severity (the wire-time inflation factor); the
//     episode closes when S decays back under clear_fraction · h.
//
//   * down episodes — retries are counted over a sliding virtual-time
//     window (≥ retry_count_threshold within retry_window ⇒ the link is
//     losing traffic); a timeout (retry budget exhausted) opens a down
//     episode immediately with confidence 1. A down episode closes after
//     down_quiet seconds without a retry or timeout.
//
// The scorer compares emitted events against the FaultPlan's ground-truth
// windows (fault::FaultPlan::truth_windows — evaluation only, never an
// input to detection) and reports precision / recall / detection latency.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "obs/eventlog.h"
#include "obs/timeseries.h"

namespace geomap {
class JsonWriter;
}

namespace geomap::recover {
class Wal;
}

namespace geomap::obs {

struct RunMeta;

/// What kind of misbehaviour an event reports.
enum class DegradationKind { kLatency, kDown };

const char* to_string(DegradationKind kind);

/// One detected degradation episode on ordered link (src, dst). Open
/// episodes (still degraded when the telemetry ends) have end_vtime =
/// +infinity.
struct DegradationEvent {
  SiteId src = -1;
  SiteId dst = -1;
  DegradationKind kind = DegradationKind::kLatency;
  /// Estimated start of the degradation (back-dated excursion start).
  Seconds onset_vtime = 0;
  /// When the detector actually alarmed; detect − truth onset is the
  /// detection latency the scorer reports.
  Seconds detect_vtime = 0;
  Seconds end_vtime = 0;
  /// Estimated wire-time inflation factor (>= 1).
  double severity = 1.0;
  /// 0..1; grows with the decision statistic's margin over threshold.
  double confidence = 0;
};

/// Ground-truth fault window on ordered link (src, dst), expanded from a
/// FaultPlan for scoring only. `down` marks windows where the link was
/// unusable (an endpoint site outage) rather than merely degraded.
struct TruthWindow {
  SiteId src = -1;
  SiteId dst = -1;
  Seconds start = 0;
  Seconds end = 0;  // +infinity for permanent faults
  bool down = false;
};

struct DetectorOptions {
  /// EWMA smoothing for the severity estimate.
  double ewma_lambda = 0.3;
  /// CUSUM slack k: per-point ratio excess absorbed without accumulating
  /// (noise margin around the healthy ratio of 1.0).
  double cusum_slack = 0.25;
  /// CUSUM alarm threshold h.
  double cusum_threshold = 2.0;
  /// A latency episode closes when its CUSUM decays to
  /// clear_fraction * cusum_threshold.
  double clear_fraction = 0.25;
  /// Sliding window and count for retry-driven down detection.
  Seconds retry_window = 1.0;
  double retry_count_threshold = 3;
  /// A down episode closes after this long without a retry or timeout.
  Seconds down_quiet = 2.0;
  /// Severity reported for down links (no finite ratio is observable).
  double down_severity = 100.0;

  void validate() const;
};

/// Serializable snapshot of one link's detector state — the CUSUM,
/// severity EWMA, retry window and open-episode indices that re-arming
/// after a crash must restore exactly (indices refer to
/// DetectorCheckpoint::events, which preserves insertion order).
struct DetectorLinkState {
  SiteId src = -1;
  SiteId dst = -1;
  double cusum = 0;
  double ewma = 1.0;
  bool ewma_primed = false;
  Seconds excursion_start = -1;
  std::ptrdiff_t open_latency = -1;
  std::vector<std::pair<Seconds, double>> recent_retries;
  std::ptrdiff_t open_down = -1;
  Seconds last_down_signal = 0;
};

/// Complete detector state at a point in the sample stream. restore()
/// re-arms a fresh detector without double-counting: open episodes stay
/// open (no re-onset when the next sample arrives), closed ones stay
/// closed.
struct DetectorCheckpoint {
  /// Episodes in insertion order (NOT the sorted order events() returns)
  /// so the per-link open-episode indices stay valid.
  std::vector<DegradationEvent> events;
  std::vector<DetectorLinkState> links;
};

/// One telemetry point destined for the detector, extracted from a
/// timeline registry. `signal`: 0 = latency ratio, 1 = retry, 2 =
/// timeout.
struct LinkSample {
  SiteId src = -1;
  SiteId dst = -1;
  int signal = 0;
  Seconds t = 0;
  double value = 0;
};

class DegradationDetector {
 public:
  explicit DegradationDetector(DetectorOptions options = {});

  /// Feed one observed latency ratio (observed wire / healthy wire) for
  /// ordered link (src, dst) at virtual time t. Points must arrive in
  /// non-decreasing t per link.
  void observe_latency_ratio(SiteId src, SiteId dst, Seconds t, double ratio);

  /// Feed `count` observed retries on (src, dst) at virtual time t.
  void observe_retry(SiteId src, SiteId dst, Seconds t, double count = 1);

  /// Feed one retry-budget exhaustion on (src, dst) at virtual time t —
  /// the strongest down signal; opens a down episode immediately.
  void observe_timeout(SiteId src, SiteId dst, Seconds t);

  /// Replay a registry's link series ("link.latency_ratio",
  /// "link.retry", "link.timeout" keyed by "src->dst" labels) through the
  /// detector in virtual-time order. Other series are ignored.
  void scan(const TimeSeriesRegistry& timeline);

  /// Snapshot of all episodes so far (open ones have end_vtime = +inf),
  /// sorted by (onset, src, dst, kind).
  std::vector<DegradationEvent> events() const;

  /// Opt-in streaming emission: with a log attached the detector emits
  /// one "detector/onset" event when an episode opens (with the
  /// detection latency detect − onset) and one "detector/clear" when it
  /// closes. nullptr (the default) keeps the exact unobserved code path.
  void set_event_log(EventLog* log) { event_log_ = log; }

  /// Opt-in crash consistency: with a WAL attached the detector appends
  /// a detector_onset / detector_clear record (and syncs) alongside each
  /// streamed emission, so a crashed control plane can re-emit the
  /// episode history it already announced. nullptr (the default) keeps
  /// the exact unlogged code path bit-identical.
  void set_wal(recover::Wal* wal) { wal_ = wal; }

  /// Serialize / restore complete detector state (see
  /// DetectorCheckpoint). restore() replaces all state and emits
  /// nothing.
  DetectorCheckpoint checkpoint() const;
  void restore(const DetectorCheckpoint& ckpt);

  const DetectorOptions& options() const { return options_; }

 private:
  struct LinkState {
    // Latency CUSUM.
    double cusum = 0;
    double ewma = 1.0;
    bool ewma_primed = false;
    Seconds excursion_start = -1;  // <0: no positive excursion open
    std::ptrdiff_t open_latency = -1;  // index into events_
    // Retry window for down detection.
    std::vector<std::pair<Seconds, double>> recent_retries;
    std::ptrdiff_t open_down = -1;
    Seconds last_down_signal = 0;
  };

  LinkState& state(SiteId src, SiteId dst);
  void maybe_close_down(LinkState& s, Seconds t);

  /// WAL record (with a WAL attached) then streamed event (with a log
  /// attached) of an episode's onset, and of its close at end_vtime.
  void log_onset(const DegradationEvent& e);
  void log_clear(const DegradationEvent& e);

  DetectorOptions options_;
  std::map<std::pair<SiteId, SiteId>, LinkState> links_;
  std::vector<DegradationEvent> events_;
  EventLog* event_log_ = nullptr;
  recover::Wal* wal_ = nullptr;
};

/// An episode as one JSON object — src, dst, kind, onset, detect, end
/// (only when finite) and severity, confidence: the payload of the
/// detector's WAL records and of recover::encode_detector_episode, and
/// each episode of a detector checkpoint in a WAL snapshot.
void write_episode(JsonWriter& w, const DegradationEvent& e, Seconds end);

/// The streamed "detector/onset" event of episode `e`, stamped at its
/// detection and carrying the detection latency detect − onset. The
/// detector emits it live; crash recovery re-emits it from the WAL.
void emit_detector_onset(EventLog& log, const DegradationEvent& e);

/// The streamed "detector/clear" event of closed episode `e`, stamped at
/// its end_vtime.
void emit_detector_clear(EventLog& log, const DegradationEvent& e);

/// Extract every link.latency_ratio / link.retry / link.timeout point
/// from a registry as one stream in a deterministic total order —
/// (t, src, dst, signal, value) — suitable for incremental feeding with
/// a resumable watermark (an index into this vector). Per-link relative
/// order matches what scan() feeds.
std::vector<LinkSample> collect_link_samples(
    const TimeSeriesRegistry& timeline);

/// Feed one extracted sample.
void feed_sample(DegradationDetector& detector, const LinkSample& sample);

// ---------------------------------------------------------------------------
// Scoring against ground truth (evaluation only)

struct DetectionScoreOptions {
  /// Grace period: an event still matches a truth window when its
  /// interval overlaps [start − slack, end + slack].
  Seconds match_slack = 0.5;
  /// When non-empty, only truth windows for these ordered links are
  /// scored — links that carried no observable traffic cannot be
  /// detected and are excluded from recall by the caller.
  std::vector<std::pair<SiteId, SiteId>> observable_links;
};

struct DetectionScore {
  int true_positive_events = 0;  // events overlapping >= 1 truth window
  int false_positive_events = 0;
  int detected_windows = 0;  // truth windows with >= 1 matching event
  int missed_windows = 0;
  /// true_positives / all events; vacuous 1.0 with no events.
  double precision = 1.0;
  /// detected / all scored windows; vacuous 1.0 with no windows.
  double recall = 1.0;
  /// Mean of max(0, detect_vtime − window start) over detected windows.
  Seconds mean_detection_latency = 0;
};

/// Match events against truth windows: an event matches a window when the
/// links are equal and the intervals overlap (with slack); a *down*
/// window additionally requires a kDown event to count as detected
/// (latency events may legitimately overlap an outage but do not prove
/// the link was down).
DetectionScore score_detections(const std::vector<DegradationEvent>& events,
                                const std::vector<TruthWindow>& truth,
                                const DetectionScoreOptions& options = {});

// ---------------------------------------------------------------------------
// Detection log: events + truth carried in the timeline artifact

/// Thread-safe store of detector output (and, for scored runs, the
/// ground-truth windows) attached to a Collector, so the exported
/// timeline artifact carries the overlay `geomap-obsctl timeline`
/// renders. Truth windows appear only when a caller explicitly records
/// them — detection itself never reads them.
class DetectionLog {
 public:
  void add_events(const std::vector<DegradationEvent>& events);
  void add_truth(const std::vector<TruthWindow>& windows);
  void set_score(const DetectionScore& score);

  std::vector<DegradationEvent> events() const;
  std::vector<TruthWindow> truth() const;
  bool has_score() const;
  DetectionScore score() const;
  bool empty() const;

 private:
  mutable std::mutex mutex_;
  std::vector<DegradationEvent> events_;
  std::vector<TruthWindow> truth_;
  bool has_score_ = false;
  DetectionScore score_;
};

/// The timeline artifact: {"meta": {...}, "window_seconds": W, "series":
/// {...}, "detections": [...], "truth": [...], "score": {...}} — series
/// from the registry, the rest from the log ("truth"/"score" omitted when
/// absent). Deterministic for deterministic runs (sorted keys, sorted
/// points, events sorted by onset).
void write_timeline_json(std::ostream& os, const TimeSeriesRegistry& timeline,
                         const DetectionLog& detections,
                         const RunMeta* meta = nullptr,
                         Seconds window_seconds = 10.0);

}  // namespace geomap::obs

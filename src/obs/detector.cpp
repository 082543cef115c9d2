#include "obs/detector.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>
#include <tuple>

#include "common/error.h"
#include "common/json_writer.h"
#include "obs/run_meta.h"
#include "recover/wal.h"

namespace geomap::obs {

namespace {

constexpr Seconds kInf = std::numeric_limits<double>::infinity();

bool event_order(const DegradationEvent& a, const DegradationEvent& b) {
  return std::tie(a.onset_vtime, a.src, a.dst, a.kind) <
         std::tie(b.onset_vtime, b.src, b.dst, b.kind);
}

}  // namespace

const char* to_string(DegradationKind kind) {
  return kind == DegradationKind::kDown ? "down" : "latency";
}

void DetectorOptions::validate() const {
  GEOMAP_CHECK_ARG(ewma_lambda > 0 && ewma_lambda <= 1,
                   "ewma_lambda must be in (0, 1], got " << ewma_lambda);
  GEOMAP_CHECK_ARG(cusum_slack >= 0,
                   "cusum_slack must be non-negative, got " << cusum_slack);
  GEOMAP_CHECK_ARG(cusum_threshold > 0,
                   "cusum_threshold must be positive, got " << cusum_threshold);
  GEOMAP_CHECK_ARG(clear_fraction >= 0 && clear_fraction < 1,
                   "clear_fraction must be in [0, 1), got " << clear_fraction);
  GEOMAP_CHECK_ARG(retry_window > 0,
                   "retry_window must be positive, got " << retry_window);
  GEOMAP_CHECK_ARG(retry_count_threshold > 0,
                   "retry_count_threshold must be positive, got "
                       << retry_count_threshold);
  GEOMAP_CHECK_ARG(down_quiet > 0,
                   "down_quiet must be positive, got " << down_quiet);
  GEOMAP_CHECK_ARG(down_severity >= 1,
                   "down_severity must be >= 1, got " << down_severity);
}

DegradationDetector::DegradationDetector(DetectorOptions options)
    : options_(options) {
  options_.validate();
}

DegradationDetector::LinkState& DegradationDetector::state(SiteId src,
                                                           SiteId dst) {
  return links_[{src, dst}];
}

void write_episode(JsonWriter& w, const DegradationEvent& e, Seconds end) {
  w.begin_object();
  w.field("src", e.src);
  w.field("dst", e.dst);
  w.field("kind", to_string(e.kind));
  w.field("onset", e.onset_vtime);
  w.field("detect", e.detect_vtime);
  if (std::isfinite(end)) w.field("end", end);
  w.field("severity", e.severity);
  w.field("confidence", e.confidence);
  w.end_object();
}

void emit_detector_onset(EventLog& log, const DegradationEvent& e) {
  log.emit(e.detect_vtime, EventSeverity::kWarn, "detector", "onset",
           {field("src", e.src), field("dst", e.dst),
            field("kind", to_string(e.kind)), field("onset", e.onset_vtime),
            field("latency", std::max(0.0, e.detect_vtime - e.onset_vtime)),
            field("severity", e.severity),
            field("confidence", e.confidence)});
}

void emit_detector_clear(EventLog& log, const DegradationEvent& e) {
  log.emit(e.end_vtime, EventSeverity::kInfo, "detector", "clear",
           {field("src", e.src), field("dst", e.dst),
            field("kind", to_string(e.kind)),
            field("duration", std::max(0.0, e.end_vtime - e.onset_vtime)),
            field("severity", e.severity),
            field("confidence", e.confidence)});
}

namespace {

/// WAL payload of an episode boundary (recover/records.cpp decodes it).
std::string episode_payload(const DegradationEvent& e, Seconds end) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  write_episode(w, e, end);
  return os.str();
}

}  // namespace

void DegradationDetector::log_onset(const DegradationEvent& e) {
  if (wal_ != nullptr) {
    wal_->append(recover::WalRecordType::kDetectorOnset, e.detect_vtime,
                 episode_payload(e, kInf));
    wal_->sync();
  }
  if (event_log_ != nullptr) emit_detector_onset(*event_log_, e);
}

void DegradationDetector::log_clear(const DegradationEvent& e) {
  if (wal_ != nullptr) {
    wal_->append(recover::WalRecordType::kDetectorClear, e.end_vtime,
                 episode_payload(e, e.end_vtime));
    wal_->sync();
  }
  if (event_log_ != nullptr) emit_detector_clear(*event_log_, e);
}

void DegradationDetector::maybe_close_down(LinkState& s, Seconds t) {
  if (s.open_down < 0) return;
  if (t - s.last_down_signal <= options_.down_quiet) return;
  DegradationEvent& open = events_[static_cast<std::size_t>(s.open_down)];
  open.end_vtime = s.last_down_signal + options_.down_quiet;
  log_clear(open);
  s.open_down = -1;
  s.recent_retries.clear();
}

void DegradationDetector::observe_latency_ratio(SiteId src, SiteId dst,
                                                Seconds t, double ratio) {
  GEOMAP_CHECK_ARG(ratio >= 0 && std::isfinite(ratio),
                   "latency ratio must be finite and non-negative, got "
                       << ratio);
  LinkState& s = state(src, dst);
  maybe_close_down(s, t);

  if (!s.ewma_primed) {
    s.ewma = ratio;
    s.ewma_primed = true;
  } else {
    s.ewma = options_.ewma_lambda * ratio +
             (1 - options_.ewma_lambda) * s.ewma;
  }

  // One-sided CUSUM against the known-healthy baseline ratio of 1.0,
  // capped at 2h: a long excursion otherwise accumulates an unbounded
  // backlog that delays recovery detection arbitrarily, and 2h is where
  // the confidence estimate saturates anyway.
  const double h = options_.cusum_threshold;
  s.cusum = std::min(
      2 * h, std::max(0.0, s.cusum + (ratio - 1.0 - options_.cusum_slack)));
  if (s.cusum > 0) {
    if (s.excursion_start < 0) s.excursion_start = t;
  } else {
    s.excursion_start = -1;
  }
  if (s.open_latency < 0) {
    if (s.cusum >= h) {
      DegradationEvent e;
      e.src = src;
      e.dst = dst;
      e.kind = DegradationKind::kLatency;
      e.onset_vtime = s.excursion_start >= 0 ? s.excursion_start : t;
      e.detect_vtime = t;
      e.end_vtime = kInf;
      e.severity = std::max(1.0, s.ewma);
      e.confidence = std::min(1.0, s.cusum / (2 * h));
      s.open_latency = static_cast<std::ptrdiff_t>(events_.size());
      events_.push_back(e);
      log_onset(e);
    }
    return;
  }

  DegradationEvent& open = events_[static_cast<std::size_t>(s.open_latency)];
  open.severity = std::max(open.severity, std::max(1.0, s.ewma));
  open.confidence = std::max(open.confidence, std::min(1.0, s.cusum / (2 * h)));
  if (s.cusum <= options_.clear_fraction * h) {
    open.end_vtime = t;
    log_clear(open);
    s.open_latency = -1;
    s.cusum = 0;
    s.excursion_start = -1;
  }
}

void DegradationDetector::observe_retry(SiteId src, SiteId dst, Seconds t,
                                        double count) {
  GEOMAP_CHECK_ARG(count > 0, "retry count must be positive, got " << count);
  LinkState& s = state(src, dst);
  maybe_close_down(s, t);
  s.recent_retries.emplace_back(t, count);
  // Prune the sliding window (points arrive in non-decreasing t).
  std::size_t keep = 0;
  while (keep < s.recent_retries.size() &&
         s.recent_retries[keep].first <= t - options_.retry_window) {
    ++keep;
  }
  s.recent_retries.erase(s.recent_retries.begin(),
                         s.recent_retries.begin() +
                             static_cast<std::ptrdiff_t>(keep));
  double in_window = 0;
  for (const auto& [rt, rc] : s.recent_retries) in_window += rc;

  if (s.open_down >= 0) {
    DegradationEvent& open = events_[static_cast<std::size_t>(s.open_down)];
    open.confidence = std::max(
        open.confidence,
        std::min(1.0, in_window / (2 * options_.retry_count_threshold)));
    s.last_down_signal = t;
    return;
  }
  if (in_window >= options_.retry_count_threshold) {
    DegradationEvent e;
    e.src = src;
    e.dst = dst;
    e.kind = DegradationKind::kDown;
    e.onset_vtime = s.recent_retries.front().first;
    e.detect_vtime = t;
    e.end_vtime = kInf;
    e.severity = options_.down_severity;
    e.confidence =
        std::min(1.0, in_window / (2 * options_.retry_count_threshold));
    s.open_down = static_cast<std::ptrdiff_t>(events_.size());
    s.last_down_signal = t;
    events_.push_back(e);
    log_onset(e);
  }
}

void DegradationDetector::observe_timeout(SiteId src, SiteId dst, Seconds t) {
  LinkState& s = state(src, dst);
  maybe_close_down(s, t);
  if (s.open_down >= 0) {
    events_[static_cast<std::size_t>(s.open_down)].confidence = 1.0;
    s.last_down_signal = t;
    return;
  }
  DegradationEvent e;
  e.src = src;
  e.dst = dst;
  e.kind = DegradationKind::kDown;
  // A timeout is the end of an exhausted retry ladder; back-date the
  // onset to the earliest retry still in the window when there is one.
  e.onset_vtime = s.recent_retries.empty() ? t : s.recent_retries.front().first;
  e.detect_vtime = t;
  e.end_vtime = kInf;
  e.severity = options_.down_severity;
  e.confidence = 1.0;
  s.open_down = static_cast<std::ptrdiff_t>(events_.size());
  s.last_down_signal = t;
  events_.push_back(e);
  log_onset(e);
}

void DegradationDetector::scan(const TimeSeriesRegistry& timeline) {
  // Feed each link's merged latency / retry / timeout stream in
  // virtual-time order, link by link (links in sorted order), so the
  // cross-signal episode logic (retry-quiet closing, etc.) sees the same
  // order an in-run observer would. The stable re-sort on (src, dst)
  // groups the globally-ordered extraction per link while preserving
  // each link's (t, signal, value) subsequence order.
  std::vector<LinkSample> samples = collect_link_samples(timeline);
  std::stable_sort(samples.begin(), samples.end(),
                   [](const LinkSample& a, const LinkSample& b) {
                     return std::tie(a.src, a.dst) < std::tie(b.src, b.dst);
                   });
  for (const LinkSample& s : samples) feed_sample(*this, s);
}

std::vector<DegradationEvent> DegradationDetector::events() const {
  std::vector<DegradationEvent> out = events_;
  std::sort(out.begin(), out.end(), event_order);
  return out;
}

DetectorCheckpoint DegradationDetector::checkpoint() const {
  DetectorCheckpoint ckpt;
  ckpt.events = events_;
  ckpt.links.reserve(links_.size());
  for (const auto& [link, s] : links_) {
    DetectorLinkState ls;
    ls.src = link.first;
    ls.dst = link.second;
    ls.cusum = s.cusum;
    ls.ewma = s.ewma;
    ls.ewma_primed = s.ewma_primed;
    ls.excursion_start = s.excursion_start;
    ls.open_latency = s.open_latency;
    ls.recent_retries = s.recent_retries;
    ls.open_down = s.open_down;
    ls.last_down_signal = s.last_down_signal;
    ckpt.links.push_back(std::move(ls));
  }
  return ckpt;
}

void DegradationDetector::restore(const DetectorCheckpoint& ckpt) {
  events_ = ckpt.events;
  links_.clear();
  for (const DetectorLinkState& ls : ckpt.links) {
    GEOMAP_CHECK_ARG(ls.open_latency <
                             static_cast<std::ptrdiff_t>(ckpt.events.size()) &&
                         ls.open_down <
                             static_cast<std::ptrdiff_t>(ckpt.events.size()),
                     "detector checkpoint open-episode index out of range for "
                     "link " << ls.src << "->" << ls.dst);
    LinkState& s = links_[{ls.src, ls.dst}];
    s.cusum = ls.cusum;
    s.ewma = ls.ewma;
    s.ewma_primed = ls.ewma_primed;
    s.excursion_start = ls.excursion_start;
    s.open_latency = ls.open_latency;
    s.recent_retries = ls.recent_retries;
    s.open_down = ls.open_down;
    s.last_down_signal = ls.last_down_signal;
  }
}

std::vector<LinkSample> collect_link_samples(
    const TimeSeriesRegistry& timeline) {
  std::vector<LinkSample> out;
  for (const std::string& key : timeline.keys()) {
    const std::size_t brace = key.find('{');
    if (brace == std::string::npos || key.back() != '}') continue;
    const std::string name = key.substr(0, brace);
    int signal;
    if (name == "link.latency_ratio") {
      signal = 0;
    } else if (name == "link.retry") {
      signal = 1;
    } else if (name == "link.timeout") {
      signal = 2;
    } else {
      continue;
    }
    int src = -1, dst = -1;
    if (!parse_link_label(key.substr(brace + 1, key.size() - brace - 2), &src,
                          &dst)) {
      continue;
    }
    const TimeSeries* series = timeline.find(key);
    if (series == nullptr) continue;
    for (const TimePoint& p : series->points()) {
      out.push_back(LinkSample{src, dst, signal, p.t, p.value});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const LinkSample& a, const LinkSample& b) {
              return std::tie(a.t, a.src, a.dst, a.signal, a.value) <
                     std::tie(b.t, b.src, b.dst, b.signal, b.value);
            });
  return out;
}

void feed_sample(DegradationDetector& detector, const LinkSample& sample) {
  switch (sample.signal) {
    case 0:
      detector.observe_latency_ratio(sample.src, sample.dst, sample.t,
                                     sample.value);
      break;
    case 1:
      detector.observe_retry(sample.src, sample.dst, sample.t, sample.value);
      break;
    case 2:
      detector.observe_timeout(sample.src, sample.dst, sample.t);
      break;
    default:
      GEOMAP_CHECK_ARG(false, "unknown link sample signal " << sample.signal);
  }
}

// ---------------------------------------------------------------------------
// Scoring

DetectionScore score_detections(const std::vector<DegradationEvent>& events,
                                const std::vector<TruthWindow>& truth,
                                const DetectionScoreOptions& options) {
  GEOMAP_CHECK_ARG(options.match_slack >= 0,
                   "match_slack must be non-negative, got "
                       << options.match_slack);
  const auto observable = [&options](SiteId src, SiteId dst) {
    if (options.observable_links.empty()) return true;
    for (const auto& [s, d] : options.observable_links) {
      if (s == src && d == dst) return true;
    }
    return false;
  };
  const auto overlaps = [&options](const DegradationEvent& e,
                                   const TruthWindow& w) {
    if (e.src != w.src || e.dst != w.dst) return false;
    return e.onset_vtime <= w.end + options.match_slack &&
           e.end_vtime >= w.start - options.match_slack;
  };

  DetectionScore score;
  for (const DegradationEvent& e : events) {
    bool matched = false;
    for (const TruthWindow& w : truth) {
      if (overlaps(e, w)) {
        matched = true;
        break;
      }
    }
    if (matched) {
      score.true_positive_events += 1;
    } else {
      score.false_positive_events += 1;
    }
  }

  Seconds latency_sum = 0;
  for (const TruthWindow& w : truth) {
    if (!observable(w.src, w.dst)) continue;
    Seconds best_detect = kInf;
    for (const DegradationEvent& e : events) {
      // A down window is only *proven* detected by a down event; a
      // degradation window is detected by either kind.
      if (w.down && e.kind != DegradationKind::kDown) continue;
      if (overlaps(e, w)) best_detect = std::min(best_detect, e.detect_vtime);
    }
    if (best_detect == kInf) {
      score.missed_windows += 1;
    } else {
      score.detected_windows += 1;
      latency_sum += std::max(0.0, best_detect - w.start);
    }
  }

  const int total_events =
      score.true_positive_events + score.false_positive_events;
  if (total_events > 0) {
    score.precision =
        static_cast<double>(score.true_positive_events) / total_events;
  }
  const int total_windows = score.detected_windows + score.missed_windows;
  if (total_windows > 0) {
    score.recall = static_cast<double>(score.detected_windows) / total_windows;
  }
  if (score.detected_windows > 0) {
    latency_sum /= score.detected_windows;
    score.mean_detection_latency = latency_sum;
  }
  return score;
}

// ---------------------------------------------------------------------------
// DetectionLog + timeline artifact

void DetectionLog::add_events(const std::vector<DegradationEvent>& events) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.insert(events_.end(), events.begin(), events.end());
}

void DetectionLog::add_truth(const std::vector<TruthWindow>& windows) {
  std::lock_guard<std::mutex> lock(mutex_);
  truth_.insert(truth_.end(), windows.begin(), windows.end());
}

void DetectionLog::set_score(const DetectionScore& score) {
  std::lock_guard<std::mutex> lock(mutex_);
  has_score_ = true;
  score_ = score;
}

std::vector<DegradationEvent> DetectionLog::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<DegradationEvent> out = events_;
  std::sort(out.begin(), out.end(), event_order);
  return out;
}

std::vector<TruthWindow> DetectionLog::truth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TruthWindow> out = truth_;
  std::sort(out.begin(), out.end(), [](const TruthWindow& a,
                                       const TruthWindow& b) {
    return std::tie(a.start, a.src, a.dst, a.end, a.down) <
           std::tie(b.start, b.src, b.dst, b.end, b.down);
  });
  return out;
}

bool DetectionLog::has_score() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return has_score_;
}

DetectionScore DetectionLog::score() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return score_;
}

bool DetectionLog::empty() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.empty() && truth_.empty() && !has_score_;
}

namespace {

/// JSON-safe time: +inf (open episodes, permanent faults) becomes null.
void time_field(JsonWriter& w, const char* key, Seconds t) {
  w.key(key);
  if (std::isfinite(t)) {
    w.value(t);
  } else {
    w.null();
  }
}

}  // namespace

void write_timeline_json(std::ostream& os, const TimeSeriesRegistry& timeline,
                         const DetectionLog& detections, const RunMeta* meta,
                         Seconds window_seconds) {
  JsonWriter w(os);
  w.begin_object();
  if (meta != nullptr) meta->write_member(w);
  timeline.write_members(w, window_seconds);
  w.key("detections").begin_array();
  for (const DegradationEvent& e : detections.events()) {
    w.begin_object();
    w.field("src", e.src);
    w.field("dst", e.dst);
    w.field("kind", to_string(e.kind));
    w.field("onset", e.onset_vtime);
    w.field("detect", e.detect_vtime);
    time_field(w, "end", e.end_vtime);
    w.field("severity", e.severity);
    w.field("confidence", e.confidence);
    w.end_object();
  }
  w.end_array();
  const std::vector<TruthWindow> truth = detections.truth();
  if (!truth.empty()) {
    w.key("truth").begin_array();
    for (const TruthWindow& t : truth) {
      w.begin_object();
      w.field("src", t.src);
      w.field("dst", t.dst);
      w.field("start", t.start);
      time_field(w, "end", t.end);
      w.field("down", t.down);
      w.end_object();
    }
    w.end_array();
  }
  if (detections.has_score()) {
    const DetectionScore score = detections.score();
    w.key("score").begin_object();
    w.field("precision", score.precision);
    w.field("recall", score.recall);
    w.field("true_positive_events", score.true_positive_events);
    w.field("false_positive_events", score.false_positive_events);
    w.field("detected_windows", score.detected_windows);
    w.field("missed_windows", score.missed_windows);
    w.field("mean_detection_latency", score.mean_detection_latency);
    w.end_object();
  }
  w.end_object();
  os << "\n";
}

}  // namespace geomap::obs

#include "obs/timeseries.h"

#include <algorithm>
#include <ostream>

#include "common/error.h"
#include "common/json_writer.h"
#include "obs/run_meta.h"

namespace geomap::obs {

TimeSeries::TimeSeries(std::size_t capacity) : capacity_(capacity) {
  GEOMAP_CHECK_ARG(capacity > 0, "time series capacity must be positive");
  buffer_.reserve(std::min<std::size_t>(capacity * 2, capacity + 1024));
}

void TimeSeries::record(Seconds t, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  buffer_.push_back(TimePoint{t, value});
  total_ += 1;
  if (buffer_.size() >= capacity_ * 2) compact_locked();
}

void TimeSeries::record_many(const std::vector<TimePoint>& points) {
  if (points.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const TimePoint& p : points) {
    buffer_.push_back(p);
    if (buffer_.size() >= capacity_ * 2) compact_locked();
  }
  total_ += points.size();
}

void TimeSeries::compact_locked() {
  // Keep the `capacity_` newest points by (t, value) — deterministic in
  // the recorded multiset, independent of arrival order.
  std::sort(buffer_.begin(), buffer_.end());
  if (buffer_.size() > capacity_) {
    buffer_.erase(buffer_.begin(),
                  buffer_.end() - static_cast<std::ptrdiff_t>(capacity_));
  }
}

std::uint64_t TimeSeries::total_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

std::vector<TimePoint> TimeSeries::points() const {
  std::vector<TimePoint> copy;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    copy = buffer_;
  }
  std::sort(copy.begin(), copy.end());
  if (copy.size() > capacity_) {
    copy.erase(copy.begin(),
               copy.end() - static_cast<std::ptrdiff_t>(capacity_));
  }
  return copy;
}

WindowStats TimeSeries::window(Seconds t_end, Seconds window,
                               double ewma_lambda) const {
  GEOMAP_CHECK_ARG(window > 0, "window must be positive, got " << window);
  GEOMAP_CHECK_ARG(ewma_lambda > 0 && ewma_lambda <= 1,
                   "ewma_lambda must be in (0, 1], got " << ewma_lambda);
  WindowStats stats;
  for (const TimePoint& p : points()) {
    if (p.t <= t_end - window || p.t > t_end) continue;
    if (stats.count == 0) {
      stats.min = stats.max = p.value;
      stats.ewma = p.value;
    } else {
      stats.min = std::min(stats.min, p.value);
      stats.max = std::max(stats.max, p.value);
      stats.ewma = ewma_lambda * p.value + (1 - ewma_lambda) * stats.ewma;
    }
    stats.count += 1;
    stats.sum += p.value;
  }
  if (stats.count > 0) {
    stats.mean = stats.sum / static_cast<double>(stats.count);
    stats.rate = static_cast<double>(stats.count) / window;
  }
  return stats;
}

void TimeSeriesRegistry::set_default_capacity(std::size_t capacity) {
  GEOMAP_CHECK_ARG(capacity > 0, "time series capacity must be positive");
  std::lock_guard<std::mutex> lock(mutex_);
  default_capacity_ = capacity;
}

TimeSeries& TimeSeriesRegistry::series(const std::string& name,
                                       const std::string& label) {
  GEOMAP_CHECK_ARG(!name.empty(), "time series name must not be empty");
  const std::string key = label.empty() ? name : name + "{" + label + "}";
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = series_.find(key);
  if (it == series_.end()) {
    it = series_.emplace(key, std::make_unique<TimeSeries>(default_capacity_))
             .first;
  }
  return *it->second;
}

std::vector<std::string> TimeSeriesRegistry::keys() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [key, s] : series_) out.push_back(key);
  return out;
}

const TimeSeries* TimeSeriesRegistry::find(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = series_.find(key);
  return it == series_.end() ? nullptr : it->second.get();
}

bool TimeSeriesRegistry::empty() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return series_.empty();
}

void TimeSeriesRegistry::write_json(std::ostream& os, const RunMeta* meta,
                                    Seconds window_seconds) const {
  JsonWriter w(os);
  w.begin_object();
  if (meta != nullptr) meta->write_member(w);
  write_members(w, window_seconds);
  w.end_object();
  os << "\n";
}

void TimeSeriesRegistry::write_members(JsonWriter& w,
                                       Seconds window_seconds) const {
  std::lock_guard<std::mutex> lock(mutex_);
  w.field("window_seconds", window_seconds);
  w.key("series").begin_object();
  for (const auto& [key, s] : series_) {
    const std::vector<TimePoint> points = s->points();
    w.key(key).begin_object();
    w.field("capacity", static_cast<std::uint64_t>(s->capacity()));
    w.field("total", s->total_recorded());
    w.field("dropped",
            s->total_recorded() - static_cast<std::uint64_t>(points.size()));
    if (!points.empty()) {
      const WindowStats stats = s->window(points.back().t, window_seconds);
      w.key("last_window").begin_object();
      w.field("count", stats.count);
      w.field("sum", stats.sum);
      w.field("min", stats.min);
      w.field("max", stats.max);
      w.field("mean", stats.mean);
      w.field("rate", stats.rate);
      w.field("ewma", stats.ewma);
      w.end_object();
    }
    w.key("points").begin_array();
    for (const TimePoint& p : points) {
      w.begin_array();
      w.value(p.t);
      w.value(p.value);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
}

std::string link_label(int src, int dst) {
  return std::to_string(src) + "->" + std::to_string(dst);
}

std::string link_series_key(const std::string& name, int src, int dst) {
  return name + "{" + link_label(src, dst) + "}";
}

bool parse_link_label(const std::string& label, int* src, int* dst) {
  const std::size_t arrow = label.find("->");
  if (arrow == std::string::npos || arrow == 0 ||
      arrow + 2 >= label.size()) {
    return false;
  }
  const std::string left = label.substr(0, arrow);
  const std::string right = label.substr(arrow + 2);
  for (const std::string& part : {left, right}) {
    if (part.empty()) return false;
    for (const char c : part) {
      if (c < '0' || c > '9') return false;
    }
  }
  *src = std::stoi(left);
  *dst = std::stoi(right);
  return true;
}

std::string tenant_label(int tenant) {
  // Appended, not `"t" + std::to_string(tenant)`: GCC 12 at -O3 reports
  // a false -Wrestrict on that expression.
  std::string label = "t";
  label += std::to_string(tenant);
  return label;
}

std::string tenant_link_label(int tenant, int src, int dst) {
  return tenant_label(tenant) + ":" + link_label(src, dst);
}

bool parse_tenant_link_label(const std::string& label, int* tenant, int* src,
                             int* dst) {
  if (label.size() < 2 || label[0] != 't') return false;
  const std::size_t colon = label.find(':');
  if (colon == std::string::npos || colon < 2) return false;
  const std::string digits = label.substr(1, colon - 1);
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
  }
  int s = 0;
  int d = 0;
  if (!parse_link_label(label.substr(colon + 1), &s, &d)) return false;
  *tenant = std::stoi(digits);
  *src = s;
  *dst = d;
  return true;
}

}  // namespace geomap::obs

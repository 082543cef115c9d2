#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/json_writer.h"
#include "obs/profile.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double Reference::time(Result& res) {
  const double t0 = now_s();
  std::unordered_map<std::string, int> counts;
  std::vector<double> values;
  values.reserve(200000);
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 200000; ++i) {
    x ^= x << 13;  // xorshift64
    x ^= x >> 7;
    x ^= x << 17;
    counts[std::to_string(x % 100000)] += i;
    values.push_back(static_cast<double>(x % 1000003));
  }
  std::sort(values.begin(), values.end());
  const double checksum =
      values[values.size() / 2] + static_cast<double>(counts.size());
  const double t = now_s() - t0;
  if (times_.empty()) checksum_ = checksum;
  times_.push_back(t);
  res.op(checksum == checksum_, "reference kernel result changed");
  return t;
}

std::vector<double> Reference::rescaled(const std::vector<double>& samples,
                                        const std::vector<double>& reference,
                                        std::size_t per) {
  const std::size_t n = std::min(samples.size(), reference.size() * per);
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(kReferenceS * samples[i] / reference[i / per]);
  return out;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) {
  if (tracer == nullptr || !tracer->enabled_) return;
  tracer_ = tracer;
  index_ = static_cast<int>(tracer->spans_.size());
  tracer->spans_.push_back(Span{name, tracer->open_, now_s(), -1});
  tracer->open_ = index_;
}

void Tracer::Scope::end() {
  if (tracer_ == nullptr) return;
  Span& s = tracer_->spans_[static_cast<std::size_t>(index_)];
  s.t1 = now_s();
  tracer_->open_ = s.parent;
  tracer_ = nullptr;
}

std::vector<Tracer::Summary> Tracer::summarize() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0)
      child_time[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
  }
  std::vector<Summary> out;
  std::map<std::string, std::size_t> slot;
  std::vector<std::vector<double>> total, self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto [it, fresh] = slot.emplace(s.name, out.size());
    if (fresh) {
      Summary sum;
      sum.name = s.name;
      if (s.parent >= 0)
        sum.parent = spans_[static_cast<std::size_t>(s.parent)].name;
      out.push_back(sum);
      total.emplace_back();
      self.emplace_back();
    }
    const double d = s.t1 - s.t0;
    total[it->second].push_back(d);
    self[it->second].push_back(d - child_time[i]);
  }
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k].count = total[k].size();
    out[k].median_s = median(total[k]);
    out[k].median_self_s = median(self[k]);
  }
  return out;
}

double Tracer::median_duration(const std::string& name) const {
  std::vector<double> d;
  for (const Span& s : spans_) {
    if (s.name == name) d.push_back(s.t1 - s.t0);
  }
  return median(d);
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "perfbench: cannot write trace to " << path << "\n";
    return;
  }
  const double origin = spans_.empty() ? 0 : spans_.front().t0;
  geomap::JsonWriter w(os, false);
  w.begin_object().key("traceEvents").begin_array();
  for (const Span& s : spans_) {
    w.begin_object()
        .field("name", std::string_view(s.name))
        .field("ph", "X")
        .field("pid", 1)
        .field("tid", 1)
        .field("ts", (s.t0 - origin) * 1e6)
        .field("dur", (s.t1 - s.t0) * 1e6)
        .end_object();
  }
  w.end_array().end_object();
  os << "\n";
}

void Result::op(bool ok, const std::string& what) {
  attempted += 1;
  if (ok) return;
  failed += 1;
  failures.push_back(what);
  std::cerr << "perfbench: FAILED " << what << "\n";
}

Fingerprint fingerprint(std::size_t workers) {
  Fingerprint fp;
  fp.nproc = std::thread::hardware_concurrency();
  fp.workers = workers;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) fp.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  if (fp.cpu_model.empty()) fp.cpu_model = "unknown";
  fp.compiler = PERFBENCH_COMPILER;
  fp.build_type = PERFBENCH_BUILD_TYPE;
  fp.sanitize = PERFBENCH_SANITIZE;
  fp.git_describe = PERFBENCH_GIT_DESCRIBE;
  return fp;
}

std::string refusal(const Fingerprint& fp) {
  if (fp.build_type != "Release" && fp.build_type != "RelWithDebInfo")
    return "build type '" + fp.build_type + "' is not an optimized build";
  if (!fp.sanitize.empty()) return "sanitizer build (" + fp.sanitize + ")";
  if (fp.workers > fp.nproc)
    return "worker count " + std::to_string(fp.workers) + " exceeds nproc " +
           std::to_string(fp.nproc);
  return "";
}

double peak_rss_mib() {
  const std::uint64_t bytes =
      geomap::obs::MemTracker::process_peak_rss_bytes();
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace perfbench

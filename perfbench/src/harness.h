#pragma once
// Shared pieces of the geomap wall-clock benchmark: clocks, the
// in-memory span tracer, the result record every workload fills, and the
// process fingerprint.
//
// Spans are recorded only from the benchmark's own files, around calls
// into the library's public entry points; nothing inside the library is
// instrumented. A span's name is the per-layer metric it feeds
// ("trace.csr_build_s", "core.map_call_s", ...), so the per-layer time
// metrics are span medians by construction. The library's own
// obs::SpanTracer is not used: obs is one of the layers being measured.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary fixed origin.
double now_s();

/// Process CPU time (user + system, every thread) from getrusage.
double cpu_seconds();

/// Median of `v` (mean of the two middle values for even sizes); 0 for
/// an empty vector.
double median(std::vector<double> v);

/// Collects spans in memory while enabled; a disabled tracer records
/// nothing and its scopes never read the clock.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span. Nests under the innermost span still open on this
  /// tracer (the benchmark is single-threaded between library calls).
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Close early; idempotent.
    void end();

   private:
    Tracer* tracer_ = nullptr;
    int index_ = -1;
  };

  /// Per span name: call count, median duration and median self time
  /// (duration minus the part covered by direct children).
  struct Summary {
    std::string name;
    std::string parent;  // name of the first occurrence's parent, "" at root
    std::size_t count = 0;
    double median_s = 0;
    double median_self_s = 0;
  };
  std::vector<Summary> summarize() const;

  /// Median duration of every span called `name` (0 when none).
  double median_duration(const std::string& name) const;

  /// Chrome trace-event JSON ("X" events, microseconds), loadable in
  /// chrome://tracing or Perfetto.
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double t0 = 0;
    double t1 = -1;
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
  int open_ = -1;
};

/// What one workload run measured. `end_to_end` holds the metric names
/// every workload reports, `named` the workload-specific names they
/// stand for (map_s, storm_case_s, ...), `per_layer` every per-layer
/// metric of a traced run. `refold` lists, per named end-to-end time,
/// the per-layer times that should add up to it.
struct Result {
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> named;
  std::map<std::string, double> per_layer;
  std::map<std::string, std::vector<std::string>> refold;
  /// Every sample behind the named wall-clock medians.
  std::map<std::string, std::vector<double>> samples;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;

  /// Count one operation; a false `ok` counts it failed and keeps `what`.
  void op(bool ok, const std::string& what);
};

/// A fixed single-threaded kernel of hashing and sorting (string keys
/// into a map, then a sort), none of it library code. Its time tracks
/// the host's speed: on a shared 4-core VM it drifted by up to 40 %
/// between runs, and single-threaded library calls drifted with it.
///
/// Single-threaded timed figures are reported rescaled to a host that
/// runs the kernel in kReferenceS: each sample is divided by the
/// kernel's time right after it and multiplied by kReferenceS. The
/// host's speed changes within seconds, so pairing each sample with its
/// neighbour tracks it better than one factor per run does. The map call
/// runs on several workers and does not track the kernel; it stays raw.
class Reference {
 public:
  /// The kernel's median time on a quiet 4-core Xeon VM.
  static constexpr double kReferenceS = 0.060;

  /// Runs the kernel once, keeps its time and returns it. Counts one
  /// operation in `res`, failed if its result differs from the first.
  double time(Result& res);

  /// Every time measured so far.
  const std::vector<double>& times() const { return times_; }

  /// kReferenceS * samples[i] / reference[i / per]: each reference time
  /// follows `per` consecutive samples. Samples after the last reference
  /// time are left out.
  static std::vector<double> rescaled(const std::vector<double>& samples,
                                      const std::vector<double>& reference,
                                      std::size_t per = 1);

 private:
  std::vector<double> times_;
  double checksum_ = 0;
};

struct Fingerprint {
  unsigned nproc = 0;
  std::size_t workers = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  std::string sanitize;
  std::string git_describe;
};
Fingerprint fingerprint(std::size_t workers);

/// Empty when numbers from this build and worker count may be reported;
/// otherwise why not (Debug or sanitizer build, workers above nproc).
std::string refusal(const Fingerprint& fp);

/// VmHWM of this process in MiB.
double peak_rss_mib();

}  // namespace perfbench

#include "recover/wal.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <memory>
#include <sstream>
#include <system_error>

#include "common/crc32.h"
#include "common/json_reader.h"
#include "common/json_writer.h"
#include "fault/crash.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define GEOMAP_HAVE_FSYNC 1
#endif

namespace geomap::recover {

namespace {

constexpr const char* kTypeNames[] = {
    "run_begin",     "detector_onset", "detector_clear", "detect_decision",
    "sched_request", "sched_grant",    "sched_requeue",  "sched_give_up",
    "sched_finish",  "mig_reserve",    "mig_release",    "mig_chunk",
    "mig_commit",    "mig_rollback",   "mig_replan",     "snapshot",
    "recovery_begin", "run_end",
};
constexpr int kNumTypes = 18;

/// Every crash point name, built once: an append hits two of them.
struct CrashPoints {
  std::array<std::string, kNumTypes> append_before;
  std::array<std::string, kNumTypes> append_after;
  std::string sync_torn = "wal.sync.torn";
  std::string sync_after = "wal.sync.after";
  std::string compact_before = "wal.compact.before";
  std::string compact_after = "wal.compact.after";
};

const CrashPoints& crash_points() {
  static const CrashPoints points = [] {
    CrashPoints p;
    for (std::size_t i = 0; i < p.append_before.size(); ++i) {
      const std::string prefix = std::string("wal.append.") + kTypeNames[i];
      p.append_before[i] = prefix + ".before";
      p.append_after[i] = prefix + ".after";
    }
    return p;
  }();
  return points;
}

std::string segment_name(int index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%06d.log", index);
  return buf;
}

/// The segment index `name` stands for, or 0 when it is not exactly
/// segment_name(index) for some index >= 1.
int segment_index(const std::string& name) {
  if (!name.starts_with("wal-")) return 0;
  int index = 0;
  const std::from_chars_result read =
      std::from_chars(name.data() + 4, name.data() + name.size(), index);
  const bool named = read.ec == std::errc{} && index >= 1 &&
                     name == segment_name(index);
  return named ? index : 0;
}

void put_hex8(char* out, std::uint32_t v) {
  constexpr char kDigits[] = "0123456789abcdef";
  for (int i = 7; i >= 0; --i, v >>= 4) out[i] = kDigits[v & 0xFu];
}

/// Takes the field up to the next space off the front of `rest`, and the
/// space with it; the whole of `rest` when it holds no space.
std::string_view next_field(std::string_view& rest) {
  const std::size_t end = std::min(rest.find(' '), rest.size());
  const std::string_view field = rest.substr(0, end);
  rest.remove_prefix(std::min(end + 1, rest.size()));
  return field;
}

/// Whether `s` is a plain decimal number: an optional '-', digits, an
/// optional '.' and digits, and an optional exponent of 'e' or 'E', an
/// optional sign and digits. Every finite double JsonWriter::format_double
/// writes has this form.
bool is_plain_decimal(std::string_view s) {
  std::size_t i = 0;
  const auto digits = [&] {
    const std::size_t from = i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    return i > from;
  };
  if (i < s.size() && s[i] == '-') ++i;
  if (!digits()) return false;
  if (i < s.size() && s[i] == '.') {
    ++i;
    if (!digits()) return false;
  }
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    if (!digits()) return false;
  }
  return i == s.size();
}

/// A JSON number as JsonWriter::value(double) writes it.
void append_number(std::string& out, double v) {
  out += std::isfinite(v) ? JsonWriter::format_double(v) : "null";
}

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

std::string read_file(const std::filesystem::path& path) {
  const std::unique_ptr<std::FILE, FileCloser> file(
      std::fopen(path.c_str(), "rb"));
  GEOMAP_CHECK_MSG(file != nullptr,
                   "cannot read WAL segment " << path.string());
  // Sized up front, so the buffer is one allocation of the file's size.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::string bytes(ec ? 0 : static_cast<std::size_t>(size), '\0');
  bytes.resize(std::fread(bytes.data(), 1, bytes.size(), file.get()));
  char chunk[4096];
  for (std::size_t n = 0;
       (n = std::fread(chunk, 1, sizeof(chunk), file.get())) > 0;) {
    bytes.append(chunk, n);
  }
  GEOMAP_CHECK_MSG(std::ferror(file.get()) == 0,
                   "cannot read WAL segment " << path.string());
  return bytes;
}

}  // namespace

const char* to_string(WalRecordType type) {
  const int i = static_cast<int>(type);
  return (i >= 0 && i < kNumTypes) ? kTypeNames[i] : "?";
}

bool parse_record_type(std::string_view name, WalRecordType* out) {
  for (int i = 0; i < kNumTypes; ++i) {
    if (name == kTypeNames[i]) {
      *out = static_cast<WalRecordType>(i);
      return true;
    }
  }
  return false;
}

std::string encode_wal_line(std::uint64_t lsn, WalRecordType type, Seconds t,
                            const std::string& payload) {
  GEOMAP_CHECK_ARG(payload.find('\n') == std::string::npos,
                   "WAL payload must be single-line");
  // parse_wal_line reads only finite times back.
  GEOMAP_CHECK_ARG(std::isfinite(t),
                   "WAL record time " << t << " is not finite");
  constexpr std::size_t kBody = 12;  // "g1 <crc8> "
  std::string line;
  line.reserve(kBody + 64 + payload.size());
  line = "g1 00000000 ";
  line += std::to_string(lsn);
  line += ' ';
  line += to_string(type);
  line += ' ';
  line += JsonWriter::format_double(t);
  line += ' ';
  line += payload;
  put_hex8(line.data() + 3, crc32(std::string_view(line).substr(kBody)));
  line += '\n';
  return line;
}

bool parse_wal_line(std::string_view line, WalRecord* out) {
  if (line.size() < 14 || !line.starts_with("g1 ") || line[11] != ' ') {
    return false;
  }
  std::uint32_t crc = 0;
  for (const char c : line.substr(3, 8)) {
    crc <<= 4;
    if (c >= '0' && c <= '9') {
      crc |= static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      crc |= static_cast<std::uint32_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  std::string_view rest = line.substr(12);
  if (crc32(rest) != crc) return false;
  // "<lsn> <type> <t>[ <payload>]", one space between fields.
  const std::string_view lsn_field = next_field(rest);
  std::uint64_t lsn = 0;
  const char* const lsn_end = lsn_field.data() + lsn_field.size();
  const std::from_chars_result read =
      std::from_chars(lsn_field.data(), lsn_end, lsn);
  if (read.ec != std::errc{} || read.ptr != lsn_end) return false;
  WalRecordType type;
  if (!parse_record_type(next_field(rest), &type)) return false;
  const std::string_view t_field = next_field(rest);
  if (!is_plain_decimal(t_field)) return false;
  const std::optional<double> t = parse_double(t_field);
  if (!t || !std::isfinite(*t)) return false;
  out->lsn = lsn;
  out->type = type;
  out->t = *t;
  out->payload.assign(rest);
  return true;
}

std::string encode_mig_payload(int tenant, std::int64_t process, SiteId from,
                               SiteId to, Bytes bytes,
                               std::optional<Seconds> downtime) {
  std::string out = "{\"tenant\":";
  out += std::to_string(tenant);
  out += ",\"process\":";
  out += std::to_string(process);
  out += ",\"from\":";
  out += std::to_string(from);
  out += ",\"to\":";
  out += std::to_string(to);
  out += ",\"bytes\":";
  append_number(out, bytes);
  if (downtime) {
    out += ",\"downtime\":";
    append_number(out, *downtime);
  }
  out += '}';
  return out;
}

Wal::Wal(std::string dir, WalOptions options)
    : dir_(std::move(dir)), options_(options) {
  std::filesystem::create_directories(dir_);
  const WalRecovery existing = read_wal(dir_);
  next_lsn_ = existing.next_lsn;
  segment_ = existing.next_segment;
}

Wal::~Wal() {
  // Deliberately no flush: buffered records die with the process.
  if (file_ != nullptr) std::fclose(file_);
}

void Wal::open_segment() {
  if (file_ != nullptr) return;
  const std::string path =
      (std::filesystem::path(dir_) / segment_name(segment_)).string();
  file_ = std::fopen(path.c_str(), "ab");
  GEOMAP_CHECK_MSG(file_ != nullptr, "cannot open WAL segment " << path);
}

std::uint64_t Wal::append(WalRecordType type, Seconds t, std::string payload) {
  fault::CrashInjector& inj = fault::CrashInjector::instance();
  const CrashPoints& points = crash_points();
  const auto index = static_cast<std::size_t>(type);
  inj.hit(points.append_before[index]);
  // Encoded first: a refused record takes no lsn.
  buffered_.push_back(encode_wal_line(next_lsn_, type, t, payload));
  const std::uint64_t lsn = next_lsn_++;
  // Snapshots ARE the folded history; recovery_begin marks a generation
  // boundary, not control-plane state — neither belongs in the
  // effective history a later snapshot embeds.
  if (type != WalRecordType::kSnapshot &&
      type != WalRecordType::kRecoveryBegin) {
    history_.push_back(HistRecord{type, t, std::move(payload)});
  }
  appended_ += 1;
  inj.hit(points.append_after[index]);
  return lsn;
}

void Wal::flush_lines(const std::vector<std::string>& lines) {
  open_segment();
  for (const std::string& line : lines) {
    const std::size_t n = std::fwrite(line.data(), 1, line.size(), file_);
    GEOMAP_CHECK_MSG(n == line.size(), "short write to WAL segment");
  }
  GEOMAP_CHECK_MSG(std::fflush(file_) == 0, "WAL flush failed");
#if GEOMAP_HAVE_FSYNC
  if (options_.fsync) ::fsync(::fileno(file_));
#endif
}

void Wal::sync() {
  fault::CrashInjector& inj = fault::CrashInjector::instance();
  const CrashPoints& points = crash_points();
  if (!buffered_.empty()) {
    if (inj.would_crash(points.sync_torn)) {
      // The process dies mid-write: every earlier buffered record lands
      // whole, the last lands half-written with no newline. Its CRC
      // fails on replay and read_wal drops it as a torn tail.
      std::vector<std::string> partial(buffered_.begin(), buffered_.end() - 1);
      partial.push_back(buffered_.back().substr(0, buffered_.back().size() / 2));
      flush_lines(partial);
      inj.hit(points.sync_torn);  // throws
    }
    flush_lines(buffered_);
    synced_ += buffered_.size();
    buffered_.clear();
  }
  inj.hit(points.sync_after);
}

void Wal::snapshot(Seconds t, const std::string& state_payload) {
  fault::CrashInjector& inj = fault::CrashInjector::instance();
  sync();  // predecessors first: a snapshot never outruns its history
  // Rotate: the snapshot opens a fresh segment.
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  segment_ += 1;
  std::ostringstream os;
  {
    JsonWriter w(os, /*pretty=*/false);
    w.begin_object();
    w.key("state").raw(state_payload);
    w.key("history").begin_array();
    for (const HistRecord& h : history_) {
      w.begin_object();
      w.field("type", to_string(h.type));
      w.field("t", h.t);
      // As an escaped string, not raw: decode must recover the payload
      // byte-exactly for re-emission and re-seeding.
      w.field("payload", h.payload);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  append(WalRecordType::kSnapshot, t, os.str());
  sync();
  snapshots_ += 1;
  // Compact: everything before the snapshot segment is now redundant.
  inj.hit(crash_points().compact_before);
  for (int i = 1; i < segment_; ++i) {
    std::error_code ec;
    std::filesystem::remove(std::filesystem::path(dir_) / segment_name(i), ec);
  }
  inj.hit(crash_points().compact_after);
}

void Wal::seed_history(std::vector<HistRecord> history) {
  GEOMAP_CHECK_MSG(history_.empty() && appended_ == 0,
               "seed_history must run before any append");
  history_ = std::move(history);
}

WalRecovery read_wal(const std::string& dir) {
  WalRecovery out;
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return out;

  std::vector<std::pair<int, std::filesystem::path>> segments;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const int index = segment_index(entry.path().filename().string());
    if (index > 0) segments.emplace_back(index, entry.path());
  }
  std::sort(segments.begin(), segments.end());

  std::uint64_t last_lsn = 0;
  for (const auto& [index, path] : segments) {
    out.segments_read += 1;
    out.next_segment = std::max(out.next_segment, index + 1);
    const std::string bytes = read_file(path);
    // Lines as std::getline splits them: a final line without its
    // newline counts, a final newline starts no empty line.
    std::vector<std::string_view> lines;
    for (std::size_t pos = 0; pos < bytes.size();) {
      const std::size_t eol = std::min(bytes.find('\n', pos), bytes.size());
      lines.push_back(std::string_view(bytes).substr(pos, eol - pos));
      pos = eol + 1;
    }
    for (std::size_t i = 0; i < lines.size(); ++i) {
      WalRecord rec;
      if (!parse_wal_line(lines[i], &rec)) {
        if (i + 1 == lines.size()) {
          out.dropped_torn += 1;  // torn tail of a crashed generation
          continue;
        }
        throw WalCorrupt("corrupt WAL record at " + path.string() + ":" +
                         std::to_string(i + 1));
      }
      if (rec.lsn <= last_lsn) {
        throw WalCorrupt("non-monotonic lsn " + std::to_string(rec.lsn) +
                         " at " + path.string() + ":" + std::to_string(i + 1));
      }
      last_lsn = rec.lsn;
      out.records.push_back(std::move(rec));
    }
  }
  out.next_lsn = last_lsn + 1;
  return out;
}

std::vector<std::string> crash_point_catalog() {
  const CrashPoints& p = crash_points();
  std::vector<std::string> points;
  for (std::size_t i = 0; i < p.append_before.size(); ++i) {
    points.push_back(p.append_before[i]);
    points.push_back(p.append_after[i]);
  }
  points.push_back(p.sync_torn);
  points.push_back(p.sync_after);
  points.push_back(p.compact_before);
  points.push_back(p.compact_after);
  return points;
}

}  // namespace geomap::recover

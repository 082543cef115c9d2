// The WAL record path against its recorded bytes and its old kernels.
// The seed-17 WAL-backed case must write the same segments, byte for
// byte, and the same case digest as the build the constants were
// recorded from; format_double, the CRC-32 and the JSON number parse must
// agree bit for bit with the snprintf/strtod and byte-wise oracles in
// wal_record_oracle.h, and every WAL line the strict line grammar accepts
// must parse as the istringstream oracle parses it.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/json_reader.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "fault/crash.h"
#include "obs/collector.h"
#include "recover/driver.h"
#include "recover/wal.h"
#include "wal_record_oracle.h"

namespace geomap::recover {
namespace {

/// A directory of its own per test (ctest runs tests as parallel
/// processes), wiped on both ends.
struct TestDir {
  std::filesystem::path path;
  TestDir()
      : path(std::filesystem::temp_directory_path() /
             (std::string("geomap-wal-record-") +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name())) {
    std::filesystem::remove_all(path);
  }
  ~TestDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// The seed-17 WAL-backed case (8 tenants on 4 sites, fsync off, a
/// snapshot every 16 samples) run into `dir`, fresh or resumed from
/// what the directory holds; returns its digest.
std::uint32_t run_seed17(const std::filesystem::path& dir) {
  obs::Collector collector;
  RecoverableSoakOptions o;
  o.soak.substrate.num_sites = 4;
  o.soak.substrate.num_tenants = 8;
  o.soak.collector = &collector;
  o.wal_dir = dir.string();
  o.wal.fsync = false;
  o.snapshot_every_samples = 16;
  return run_recoverable_case(17, o).digest;
}

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// "<name> <size> <crc32 hex>" per file of `dir`, in name order, the
/// CRC taken with the byte-wise oracle.
std::string segment_table(const std::filesystem::path& dir) {
  std::vector<std::string> rows;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string bytes = file_bytes(entry.path());
    char crc[16];
    std::snprintf(crc, sizeof(crc), "%08x",
                  static_cast<unsigned>(testutil::oracle_crc32(bytes)));
    rows.push_back(entry.path().filename().string() + " " +
                   std::to_string(bytes.size()) + " " + crc);
  }
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const std::string& row : rows) out += row + "\n";
  return out;
}

TEST(WalBytesTest, Seed17CaseWritesItsRecordedSegmentsAndDigest) {
  const TestDir dir;
  const std::uint32_t digest = run_seed17(dir.path);
  EXPECT_EQ(segment_table(dir.path), "wal-000007.log 20896 81e3630f\n");
  EXPECT_EQ(digest, 1891181464u);
}

TEST(WalBytesTest, Seed17CaseKilledAndResumedWritesItsRecordedSegments) {
  const TestDir dir;
  fault::CrashInjector& inj = fault::CrashInjector::instance();
  inj.arm("wal.append.mig_commit.after", /*skip=*/3);
  bool fired = false;
  try {
    run_seed17(dir.path);
  } catch (const fault::CrashTriggered&) {
    fired = true;
  }
  inj.disarm();
  ASSERT_TRUE(fired);
  const std::uint32_t digest = run_seed17(dir.path);
  EXPECT_EQ(segment_table(dir.path),
            "wal-000007.log 7521 becac737\n"
            "wal-000008.log 18418 5663ab92\n");
  EXPECT_EQ(digest, 1891181464u);
}

// ---------------------------------------------------------------------------
// format_double against the snprintf/strtod loop

/// Counts the doubles whose two formattings differ, keeping the first
/// few for the failure message.
struct FormatDiff {
  std::size_t checked = 0;
  std::size_t differ = 0;
  std::string first;

  void check(double v) {
    checked += 1;
    const std::string got = JsonWriter::format_double(v);
    const std::string want = testutil::oracle_format_double(v);
    if (got == want) return;
    differ += 1;
    if (differ <= 5) {
      char bits[24];
      std::snprintf(bits, sizeof(bits), "%016llx",
                    static_cast<unsigned long long>(
                        std::bit_cast<std::uint64_t>(v)));
      first += std::string(bits) + ": " + got + " != " + want + "\n";
    }
  }
};

TEST(WalRecordDiffTest, FormatDoubleMatchesThePrintfLoop) {
  FormatDiff diff;
  Rng rng(2026);
  // Random bit patterns: every exponent, NaNs and infinities among them.
  for (int i = 0; i < 400000; ++i) diff.check(std::bit_cast<double>(rng()));
  // Subnormals.
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t mantissa = rng() & ((std::uint64_t{1} << 52) - 1);
    const std::uint64_t sign = rng() & (std::uint64_t{1} << 63);
    diff.check(std::bit_cast<double>(sign | mantissa));
  }
  diff.check(0.0);
  diff.check(-0.0);
  diff.check(std::numeric_limits<double>::max());
  diff.check(std::numeric_limits<double>::min());
  diff.check(std::numeric_limits<double>::denorm_min());
  diff.check(std::numeric_limits<double>::infinity());
  diff.check(-std::numeric_limits<double>::infinity());
  diff.check(std::numeric_limits<double>::quiet_NaN());
  // Integers on both sides of the 1e15 switch, and their neighbours.
  for (int k = -20000; k <= 20000; ++k) {
    for (const double sign : {1.0, -1.0}) {
      const double v = sign * (1e15 + k);
      diff.check(v);
      diff.check(std::nextafter(v, 0.0));
      diff.check(std::nextafter(v, sign * 2e15));
      diff.check(v + 0.5 * sign);
    }
  }
  // Powers of two from the smallest subnormal up, and their neighbours.
  for (int e = -1074; e <= 1023; ++e) {
    for (const double sign : {1.0, -1.0}) {
      const double v = sign * std::ldexp(1.0, e);
      diff.check(v);
      diff.check(std::nextafter(v, 0.0));
      diff.check(std::nextafter(v, sign * std::numeric_limits<double>::max()));
    }
  }
  // Virtual times: sums of small steps, decimal fractions, and
  // quotients such as `bytes / bandwidth`.
  double t = 0;
  for (int i = 0; i < 150000; ++i) {
    t += rng.uniform(0, 0.05);
    diff.check(t);
    diff.check(static_cast<double>(rng.uniform_int(0, 10000000)) / 1000.0);
    diff.check(rng.uniform(1, 1e8) / rng.uniform(1e3, 1e10));
  }
  // Random integers of every size, exact in a double.
  for (int i = 0; i < 100000; ++i) {
    const int bits = static_cast<int>(rng.uniform_int(1, 53));
    diff.check(static_cast<double>(rng() >> (64 - bits)));
  }
  EXPECT_GE(diff.checked, 1000000u);
  EXPECT_EQ(diff.differ, 0u) << diff.first;
}

// ---------------------------------------------------------------------------
// Slicing-by-8 CRC-32 against the byte-wise one

std::string random_bytes(Rng& rng, std::size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng() & 0xFFu);
  return out;
}

TEST(WalRecordDiffTest, Crc32MatchesTheByteWiseTable) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(testutil::oracle_crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);

  Rng rng(7);
  const std::string buf = random_bytes(rng, 64 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::string_view piece = std::string_view(buf).substr(offset, len);
      ASSERT_EQ(crc32(piece), testutil::oracle_crc32(piece))
          << "offset " << offset << " length " << len;
      ASSERT_EQ(crc32_update(0x12345678u, piece),
                testutil::oracle_crc32_update(0x12345678u, piece))
          << "offset " << offset << " length " << len;
    }
  }

  for (int round = 0; round < 4; ++round) {
    const std::string big = random_bytes(rng, std::size_t{1} << 20);
    const std::uint32_t want = testutil::oracle_crc32(big);
    EXPECT_EQ(crc32(big), want);
    // Chained over random split points, from any start offset.
    std::uint32_t state = crc32_init();
    for (std::size_t pos = 0; pos < big.size();) {
      const std::size_t n = std::min<std::size_t>(
          big.size() - pos, static_cast<std::size_t>(rng.uniform_int(0, 300)));
      state = crc32_update(state, std::string_view(big).substr(pos, n));
      pos += n;
    }
    EXPECT_EQ(crc32_final(state), want);
  }
}

// ---------------------------------------------------------------------------
// parse_wal_line's grammar against the istringstream parse

std::vector<std::string> segment_lines(const std::filesystem::path& dir) {
  std::vector<std::string> lines;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::istringstream is(file_bytes(entry.path()));
    for (std::string line; std::getline(is, line);) lines.push_back(line);
  }
  return lines;
}

/// "g1 <crc8> <body>" with the CRC recomputed, so the line reaches the
/// field parse.
std::string with_crc(const std::string& body) {
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x",
                static_cast<unsigned>(testutil::oracle_crc32(body)));
  return std::string("g1 ") + crc + " " + body;
}

/// The strict parse on one line, checked against the stream parse:
/// whatever the strict parse accepts, the stream parse accepts with the
/// same fields, bit for bit. Returns whether the strict parse accepted.
bool accepts_as_oracle(const std::string& line) {
  WalRecord got;
  if (!parse_wal_line(line, &got)) return false;
  WalRecord want;
  EXPECT_TRUE(testutil::oracle_parse_wal_line(line, &want)) << "line: " << line;
  EXPECT_EQ(got.lsn, want.lsn) << "line: " << line;
  EXPECT_EQ(got.type, want.type) << "line: " << line;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.t),
            std::bit_cast<std::uint64_t>(want.t))
      << "line: " << line;
  EXPECT_EQ(got.payload, want.payload) << "line: " << line;
  return true;
}

TEST(WalRecordDiffTest, WalLineParseMatchesTheStreamParse) {
  const TestDir dir;
  run_seed17(dir.path);
  const std::vector<std::string> lines = segment_lines(dir.path);
  ASSERT_GT(lines.size(), 100u);

  const std::vector<std::string> lsns = {
      "+5", "-5", "-0", "0x10", "007", "5a", "1e3", "5.5", "+", "-", "--5",
      "18446744073709551615", "18446744073709551616", "-18446744073709551615",
      std::string("5\0", 2), std::string("\0" "5", 2)};
  const std::vector<std::string> types = {
      "MIG_CHUNK", "mig_chunkx", "mig", "snapshot", "run_end", "?",
      std::string("mig_chunk\0", 10)};
  const std::vector<std::string> times = {
      "+5", "0x1p3", "-0x1P-3", "inf", "-inf", "INF", "infinity", "nan",
      "-nan", "nan(123)", "1e-400", "-1e-400", "1e999", "-1e999",
      "4.9e-324", "2.4e-324", "1.", "-.5", ".5", "01", "-0", "1e", "1e+",
      ".", "-", "0x", "1.5.5", "1,5", "12345678901234567890123",
      "0.30000000000000004", std::string("1.5\0" "9", 5), std::string("\0", 1)};
  const std::vector<std::string> gaps = {"  ", "\t", " \t ", "\v", "\f", "\r",
                                         " \r "};

  Rng rng(17);
  std::size_t accepted = 0;
  std::size_t oracle_only = 0;
  std::size_t mutants = 0;
  for (const std::string& line : lines) {
    ASSERT_TRUE(accepts_as_oracle(line)) << line;
    // Split the body at its first three spaces: lsn, type, time, payload.
    const std::string body = line.substr(12);
    const std::size_t a = body.find(' ');
    const std::size_t b = body.find(' ', a + 1);
    const std::size_t c = body.find(' ', b + 1);
    ASSERT_NE(c, std::string::npos) << line;
    const std::string lsn = body.substr(0, a);
    const std::string type = body.substr(a + 1, b - a - 1);
    const std::string t = body.substr(b + 1, c - b - 1);
    const std::string payload = body.substr(c + 1);
    const auto join = [](const std::string& l, const std::string& ty,
                         const std::string& tt, const std::string& p,
                         const std::string& gap) {
      return l + gap + ty + gap + tt + gap + p;
    };
    std::vector<std::string> bodies;
    for (const std::string& v : lsns) {
      bodies.push_back(join(v, type, t, payload, " "));
    }
    for (const std::string& v : types) {
      bodies.push_back(join(lsn, v, t, payload, " "));
    }
    for (const std::string& v : times) {
      bodies.push_back(join(lsn, type, v, payload, " "));
    }
    for (const std::string& g : gaps) {
      bodies.push_back(join(lsn, type, t, payload, g));
      bodies.push_back(g + body);
      bodies.push_back(body + g);
      bodies.push_back(lsn + " " + type + " " + t + g + payload);
    }
    bodies.push_back(lsn + type + " " + t + " " + payload);
    bodies.push_back(lsn + " " + type + " " + t);
    bodies.push_back(lsn + " " + type + " " + t + " ");
    bodies.push_back(lsn + " " + type);
    bodies.push_back("");
    // Byte edits, insertions and deletions in the fields (never a
    // newline: a line holds none).
    for (int k = 0; k < 8; ++k) {
      std::string m = body;
      const std::size_t at = static_cast<std::size_t>(
          rng.uniform_index(std::min<std::size_t>(m.size(), c + 2)));
      char byte = static_cast<char>(rng() & 0xFFu);
      if (byte == '\n') byte = ' ';
      switch (rng.uniform_index(3)) {
        case 0: m[at] = byte; break;
        case 1: m.insert(at, 1, byte); break;
        default: m.erase(at, 1); break;
      }
      bodies.push_back(m);
      // The same edit without a fresh CRC must fail its checksum.
      if (m != body) {
        EXPECT_FALSE(accepts_as_oracle("g1 " + line.substr(3, 9) + m));
      }
    }
    for (const std::string& m : bodies) {
      const std::string mutant = with_crc(m);
      if (accepts_as_oracle(mutant)) {
        accepted += 1;
      } else {
        WalRecord r;
        oracle_only += testutil::oracle_parse_wal_line(mutant, &r) ? 1 : 0;
      }
      mutants += 1;
    }
    // Forms the stream parse took and the grammar refuses: a signed or
    // overflowing lsn, an lsn run into its type, a second space or another
    // whitespace byte between fields, and a time with a '+', in hex, not
    // finite or holding a NUL.
    for (const std::string& refused : {
             join("+" + lsn, type, t, payload, " "),
             join("-" + lsn, type, t, payload, " "),
             join("18446744073709551616", type, t, payload, " "),
             lsn + type + " " + t + " " + payload,
             join(lsn, type, t, payload, "  "),
             join(lsn, type, t, payload, "\t"),
             " " + body,
             join(lsn, type, "+5", payload, " "),
             join(lsn, type, "0x1p3", payload, " "),
             join(lsn, type, "inf", payload, " "),
             join(lsn, type, "-inf", payload, " "),
             join(lsn, type, "nan", payload, " "),
             join(lsn, type, "1e999", payload, " "),
             join(lsn, type, t + std::string("\0" "9", 2), payload, " "),
             join(lsn, type, std::string("1.5\0", 4), payload, " ")}) {
      EXPECT_FALSE(accepts_as_oracle(with_crc(refused)))
          << "accepted: " << refused;
    }
  }
  // The mutants reach the field parse: the grammar accepts some, refuses
  // some, and refuses some the stream parse takes.
  EXPECT_GT(accepted, lines.size());
  EXPECT_LT(accepted, mutants);
  EXPECT_GT(oracle_only, 0u);
}

// ---------------------------------------------------------------------------
// JSON numbers: the from_chars path against strtod

/// strtod over all of `token`: accepted only when it reads every byte.
bool strtod_whole(const std::string& token, double* out) {
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  return end != token.c_str() && end == token.c_str() + token.size();
}

void expect_same_number(const std::string& token) {
  double want = 0;
  const bool want_ok = strtod_whole(token, &want);
  const std::optional<double> got = parse_double(token);
  ASSERT_EQ(got.has_value(), want_ok) << token;
  if (want_ok) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*got),
              std::bit_cast<std::uint64_t>(want))
        << token;
  }
  // parse_json takes a number when strtod reads it whole to a finite
  // value, and throws JsonParseError otherwise.
  if (token.find_first_not_of("0123456789.eE+-") != std::string::npos) return;
  if (want_ok && std::isfinite(want)) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parse_json(token).as_number()),
              std::bit_cast<std::uint64_t>(want))
        << token;
  } else {
    EXPECT_THROW(parse_json(token), JsonParseError) << token;
  }
}

TEST(WalRecordDiffTest, JsonNumberParseMatchesStrtod) {
  for (const char* token :
       {"1e-400", "-1e-400", "1e999", "-1e999", "4.9e-324", "2.4e-324",
        "2.5e-324", "-0", "0", "1.", "-.5", ".5", "01", "+1", "1e", "1e+",
        "-", ".", "+", "1e-", "--1", "1.5e3", "1E3", "0.1",
        "2.2250738585072011e-308", "1.7976931348623157e308",
        "1.7976931348623159e308",
        "123456789012345678901234567890", "0x1p3", "inf", "-inf", "nan",
        "nan(123)", "infinity", "1.5 ", " 1.5"}) {
    expect_same_number(token);
  }
  // 17-digit mantissas over the whole exponent range.
  Rng rng(903);
  for (int i = 0; i < 100000; ++i) {
    char token[48];
    std::snprintf(token, sizeof(token), "%s%llu.%016llue%d",
                  rng.uniform_index(2) == 0 ? "" : "-",
                  static_cast<unsigned long long>(rng.uniform_int(1, 9)),
                  static_cast<unsigned long long>(
                      rng.uniform_index(10000000000000000ULL)),
                  static_cast<int>(rng.uniform_int(-330, 310)));
    expect_same_number(token);
  }
}

}  // namespace
}  // namespace geomap::recover

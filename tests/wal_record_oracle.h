#pragma once
// The record-path kernels that <charconv> and slicing-by-8 replaced,
// kept as differential oracles for their replacements: the
// snprintf/strtod loop of JsonWriter::format_double, the byte-wise
// CRC-32 and the istringstream parse of one WAL line. WAL CRCs, case
// digests and blessed artifacts hold their output, so the replacements
// must agree with them bit for bit.

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>

#include "recover/wal.h"

namespace geomap::testutil {

/// Integers below 1e15 print as "%.0f" plus ".0"; anything else prints
/// as the first of %.15g, %.16g and %.17g that strtod reads back equal.
inline std::string oracle_format_double(double v) {
  if (std::nearbyint(v) == v && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return std::string(buf) + ".0";
  }
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), one table
/// lookup per byte. Same init/final convention as common/crc32.h.
inline std::uint32_t oracle_crc32_update(std::uint32_t state,
                                         std::string_view data) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  for (const char ch : data) {
    state = table[(state ^ static_cast<unsigned char>(ch)) & 0xFFu] ^
            (state >> 8);
  }
  return state;
}

inline std::uint32_t oracle_crc32(std::string_view data) {
  return oracle_crc32_update(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

/// Parse "g1 <crc8> <lsn> <type> <t> <payload>" (no newline) with an
/// istringstream: `>>` for the lsn, type and time tokens, strtod over
/// the whole time token, and the rest of the line, less one leading
/// space, as the payload. False on any structural or checksum failure.
inline bool oracle_parse_wal_line(const std::string& line,
                                  recover::WalRecord* out) {
  if (line.size() < 14 || line.compare(0, 3, "g1 ") != 0) return false;
  if (line[11] != ' ') return false;
  const std::string crc_hex = line.substr(3, 8);
  std::uint32_t crc = 0;
  for (const char c : crc_hex) {
    crc <<= 4;
    if (c >= '0' && c <= '9') {
      crc |= static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      crc |= static_cast<std::uint32_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  const std::string body = line.substr(12);
  if (oracle_crc32(body) != crc) return false;
  std::istringstream is(body);
  std::uint64_t lsn = 0;
  std::string type_name;
  std::string t_str;
  if (!(is >> lsn >> type_name >> t_str)) return false;
  recover::WalRecordType type;
  if (!recover::parse_record_type(type_name, &type)) return false;
  char* end = nullptr;
  const double t = std::strtod(t_str.c_str(), &end);
  if (end == t_str.c_str() || *end != '\0') return false;
  std::string payload;
  std::getline(is, payload);
  if (!payload.empty() && payload.front() == ' ') payload.erase(0, 1);
  out->lsn = lsn;
  out->type = type;
  out->t = t;
  out->payload = std::move(payload);
  return true;
}

}  // namespace geomap::testutil

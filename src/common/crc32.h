#pragma once
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320; crc32("123456789")
// is 0xCBF43926), computed slicing-by-8: eight table lookups fold eight
// bytes per step. Used as the per-record self-check in the write-ahead
// log (src/recover/wal.h) and for cheap content digests: a torn or
// bit-flipped WAL line must fail its checksum rather than replay as a
// plausible record. WAL files and case digests hold its values, so the
// function itself must never change.

#include <cstdint>
#include <string_view>

namespace geomap {

/// Incremental update: feed successive buffers with the running value
/// (start from crc32_init()) and finalize with crc32_final().
std::uint32_t crc32_init();
std::uint32_t crc32_update(std::uint32_t state, std::string_view data);
std::uint32_t crc32_final(std::uint32_t state);

/// One-shot checksum of `data`.
std::uint32_t crc32(std::string_view data);

}  // namespace geomap

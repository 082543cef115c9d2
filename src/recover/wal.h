#pragma once
// Checksummed, fsync-disciplined write-ahead log for the control plane.
//
// The observe→detect→schedule→migrate loop survives its own process
// dying by writing every durable fact — detector episode onsets/clears,
// the detection decision, scheduler requests/grants/requeues/give-ups/
// finishes, every migration protocol transition — to an append-only log
// before (or atomically with) acting on it, and by periodically folding
// the log into a compacting snapshot. Recovery (src/recover/recovery.h)
// replays snapshot + tail and resumes the loop.
//
// Format: one record per line,
//
//   g1 <crc32-hex8> <lsn> <type> <t> <payload-json>
//
// where the checksum covers everything after it. Records live in
// numbered segment files (`wal-000001.log`, ...); a snapshot starts a
// fresh segment whose first record is the snapshot itself (state +
// embedded effective history), after which older segments are deleted.
//
// Durability model (deliberately faithful to a real fsync discipline):
// append() only *buffers* a record; sync() writes the buffer to the
// segment and fsyncs it. A crash — modeled by fault::CrashTriggered
// thrown from an armed crash point, after which the Wal object is
// abandoned — loses every appended-but-unsynced record, and an armed
// `wal.sync.torn` point additionally leaves the last record half-written
// (its CRC fails on replay and it is dropped as a torn tail). The
// destructor never flushes: dropping a Wal with a non-empty buffer is
// exactly "the process died".
//
// Every append/sync/snapshot boundary is a named crash point
// (`wal.append.<type>.before/after`, `wal.sync.torn/after`,
// `wal.compact.before/after`) — crash_point_catalog() enumerates them
// for the exhaustive kill-at-every-point soak.

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace geomap::recover {

enum class WalRecordType {
  kRunBegin,
  kDetectorOnset,
  kDetectorClear,
  kDetectDecision,
  kSchedRequest,
  kSchedGrant,
  kSchedRequeue,
  kSchedGiveUp,
  kSchedFinish,
  kMigReserve,
  kMigRelease,
  kMigChunk,
  kMigCommit,
  kMigRollback,
  kMigReplan,
  kSnapshot,
  kRecoveryBegin,
  kRunEnd,
};

const char* to_string(WalRecordType type);
bool parse_record_type(std::string_view name, WalRecordType* out);

/// One decoded log record.
struct WalRecord {
  std::uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kRunBegin;
  Seconds t = 0;
  std::string payload;  // single-line JSON object
};

/// A (type, t, payload) triple without an lsn — the unit of the
/// *effective history* a snapshot embeds and recovery replays.
struct HistRecord {
  WalRecordType type = WalRecordType::kRunBegin;
  Seconds t = 0;
  std::string payload;
};

/// Structural corruption beyond a tolerable torn tail: a bad checksum or
/// unparseable line anywhere but the last line of a segment, or a
/// non-monotonic lsn.
class WalCorrupt : public Error {
 public:
  using Error::Error;
};

struct WalOptions {
  /// fsync(2) the segment on every sync(). Off still fflushes (tests
  /// that hammer thousands of tiny WALs); the crash *model* is
  /// unchanged either way because in-process crashes never lose OS
  /// buffers.
  bool fsync = true;
};

class Wal {
 public:
  /// Opens (creating the directory if needed) and positions after the
  /// highest durable lsn. Always starts a fresh segment, so a torn tail
  /// from a previous generation stays quarantined at its segment's end.
  explicit Wal(std::string dir, WalOptions options = {});
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Buffer one record; durable only after the next sync(). Returns the
  /// assigned lsn. A record encode_wal_line refuses throws and takes none.
  std::uint64_t append(WalRecordType type, Seconds t, std::string payload);

  /// Write buffered records to the current segment and fsync it.
  void sync();

  /// sync(), rotate to a fresh segment, write a snapshot record whose
  /// payload is {"state": <state_payload>, "history": [...]} with the
  /// full effective history, fsync, then delete the older segments.
  void snapshot(Seconds t, const std::string& state_payload);

  /// Seed the effective history with the records a RecoveryManager
  /// replayed, so the next snapshot folds the pre-crash past too. Call
  /// once, before any append.
  void seed_history(std::vector<HistRecord> history);

  const std::string& dir() const { return dir_; }
  std::uint64_t next_lsn() const { return next_lsn_; }
  std::uint64_t appended() const { return appended_; }
  std::uint64_t synced() const { return synced_; }
  std::uint64_t snapshots() const { return snapshots_; }

 private:
  void open_segment();
  void flush_lines(const std::vector<std::string>& lines);

  std::string dir_;
  WalOptions options_;
  std::uint64_t next_lsn_ = 1;
  int segment_ = 1;
  std::FILE* file_ = nullptr;
  std::vector<std::string> buffered_;     // encoded lines awaiting sync
  std::vector<HistRecord> history_;       // effective history for snapshots
  std::uint64_t appended_ = 0;
  std::uint64_t synced_ = 0;
  std::uint64_t snapshots_ = 0;
};

/// What read_wal found on disk.
struct WalRecovery {
  /// Every valid record, in (segment, line) order. Snapshot records
  /// appear in place; recovery folds them.
  std::vector<WalRecord> records;
  std::uint64_t next_lsn = 1;
  int next_segment = 1;
  int segments_read = 0;
  /// Invalid *final* lines of segments, dropped as torn tails.
  int dropped_torn = 0;
};

/// Read a WAL directory. A bad line at the very end of a segment is a
/// torn tail (dropped, counted); anywhere else it throws WalCorrupt.
/// A missing or empty directory yields an empty recovery. Only files
/// named exactly as the Wal names its segments (`wal-000001.log`, ...)
/// are read; `wal-000023.log.bak` or `wal-3.tmp` beside them are not.
WalRecovery read_wal(const std::string& dir);

/// Every crash point the WAL can die at — the exhaustive soak's matrix.
std::vector<std::string> crash_point_catalog();

/// Encode one record line (exposed for tests that corrupt records).
/// Throws InvalidArgument on a payload holding a newline or a time that
/// is not finite, which parse_wal_line would not read back.
std::string encode_wal_line(std::uint64_t lsn, WalRecordType type, Seconds t,
                            const std::string& payload);

/// Decode one record line, without its newline: the CRC must match and
/// the body must read `<lsn> <type> <t>[ <payload>]` with one space
/// between fields. The lsn is unsigned decimal digits that fit 64 bits,
/// the type a record type's exact name, and the time a plain decimal
/// number (an optional '-', digits, an optional fraction and an optional
/// exponent, as JsonWriter::format_double writes) that reads to a finite
/// double; the payload is the rest of the line. A sign on the lsn, a
/// second space, '+5', hex, inf, nan or a NUL byte in a field is refused.
/// False on any structural or checksum failure; `out` is written only on
/// success.
bool parse_wal_line(std::string_view line, WalRecord* out);

/// The payload of a mig_* record:
/// {"tenant":..,"process":..,"from":..,"to":..,"bytes":..}, plus
/// "downtime" when one is given (commits). The migration executor and
/// recover::encode_mig both write it here; recover::decode_mig reads it.
std::string encode_mig_payload(int tenant, std::int64_t process, SiteId from,
                               SiteId to, Bytes bytes,
                               std::optional<Seconds> downtime);

}  // namespace geomap::recover

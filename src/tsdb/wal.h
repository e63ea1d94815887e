#ifndef PPM_TSDB_WAL_H_
#define PPM_TSDB_WAL_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "tsdb/time_series.h"
#include "util/status.h"

namespace ppm::tsdb {

/// Write-ahead log of appended instants, the durability companion of the
/// streaming miner (docs/FILE_FORMATS.md, docs/ROBUSTNESS.md).
///
/// Layout (little-endian):
///
///   magic            8 bytes  "PPMWAL1\n"
///   record*          until EOF
///
/// Each record frames one instant:
///
///   payload_len      u32      bytes in the payload
///   seq              u64      record sequence number (0, 1, 2, ...)
///   header_crc       u32      CRC32C of the 12 bytes above
///   payload_crc      u32      CRC32C of the payload
///   payload          payload_len bytes: varint feature count, then the
///                    sorted feature ids delta-encoded as varints (first id
///                    absolute, then gaps >= 1) -- the v2 instant encoding
///
/// Replay distinguishes a *torn tail* (a crash mid-append: the log is valid
/// up to the tear, which is truncated away on the next open) from *interior
/// corruption* (bit rot or splicing before later valid records: `kCorruption`,
/// never silently skipped).
inline constexpr char kWalMagic[8] = {'P', 'P', 'M', 'W', 'A', 'L', '1', '\n'};

/// Bytes of one record frame before the payload.
inline constexpr uint64_t kWalRecordHeaderBytes = 20;

/// Upper bound on a record payload's declared length; larger values are
/// rejected as corruption before allocating.
inline constexpr uint32_t kMaxWalRecordBytes = 1u << 24;

/// Upper bound on an encoded feature id (matches the series codec's
/// plausibility cap so hostile bytes cannot force huge bitsets).
inline constexpr uint32_t kMaxWalFeatureId = 1u << 24;

/// When `WalWriter::Append` / `AppendBatch` flush to stable storage.
enum class WalFsync {
  /// fsync at the end of every append call, before it returns (no
  /// acknowledged instant is ever lost; the default).
  kAlways = 0,
  /// Never fsync on append (the OS decides; a crash may lose the tail back
  /// to the last `Sync()` -- recovery still converges, later).
  kNever = 1,
};

/// What `ReplayWal` found.
struct WalReplayInfo {
  /// Records delivered to the callback (seq >= start_seq).
  uint64_t records_delivered = 0;
  /// Valid records before `start_seq`, skipped without delivery.
  uint64_t records_skipped = 0;
  /// Sequence number the next appended record must carry.
  uint64_t next_seq = 0;
  /// Bytes of the file covered by valid records (incl. the magic); a new
  /// writer truncates the file to this length before appending.
  uint64_t valid_bytes = 0;
  /// Bytes discarded past `valid_bytes` (nonzero iff `torn_tail`).
  uint64_t dropped_bytes = 0;
  /// True when the file ended in a torn (partially written) record that
  /// was truncated away.
  bool torn_tail = false;
};

/// Replays the log at `path`, invoking `fn(seq, instant)` for every valid
/// record with `seq >= start_seq`, in order. Returns what it found.
///
/// - Missing file: `NotFound`.
/// - Torn tail (short header/payload, or a bad payload CRC on the final
///   record): the tail is reported (not yet truncated) and replay succeeds
///   with `torn_tail = true`.
/// - Anything else -- bad magic, a bad record followed by later valid
///   records, a sequence gap, an oversized length, undecodable payload --
///   is `kCorruption`.
/// - A non-OK status from `fn` aborts the replay and is returned as-is.
Result<WalReplayInfo> ReplayWal(
    const std::string& path, uint64_t start_seq,
    const std::function<Status(uint64_t seq, const FeatureSet& instant)>& fn);

/// `ReplayWal` for a *tail log*: a WAL whose first record may carry any
/// sequence number (a per-series append log laid down against a base
/// snapshot of that many instants, see `service/series_store`). The base is
/// inferred from the first valid record; contiguity is enforced from there
/// exactly as in `ReplayWal`. When the log holds no records, the returned
/// `next_seq` is 0 -- the caller knows the true base (its snapshot length)
/// and must substitute it.
Result<WalReplayInfo> ReplayWalTail(
    const std::string& path, uint64_t start_seq,
    const std::function<Status(uint64_t seq, const FeatureSet& instant)>& fn);

/// Appends CRC-framed instants to a WAL file.
class WalWriter {
 public:
  /// Creates a fresh log at `path` (truncating anything already there).
  static Result<std::unique_ptr<WalWriter>> Create(const std::string& path,
                                                   WalFsync fsync);

  /// Creates a fresh *tail log* at `path` (truncating anything already
  /// there) whose first record will carry sequence `first_seq` -- the length
  /// of the base snapshot the log extends. Replay it with `ReplayWalTail`.
  static Result<std::unique_ptr<WalWriter>> CreateAt(const std::string& path,
                                                     WalFsync fsync,
                                                     uint64_t first_seq);

  /// Opens `path` for appending after a replay: truncates the file to
  /// `valid_bytes` (discarding any torn tail) and continues at `next_seq`.
  /// When the file is missing or `valid_bytes` doesn't cover the magic, a
  /// fresh log is written instead.
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& path,
                                                 WalFsync fsync,
                                                 uint64_t next_seq,
                                                 uint64_t valid_bytes);

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one instant; with `WalFsync::kAlways` the record is on stable
  /// storage when this returns.
  Status Append(const FeatureSet& instant) { return AppendBatch({&instant, 1}); }

  /// Appends `instants` as consecutive records (group commit): every record
  /// is encoded into one buffer, written once and, with `WalFsync::kAlways`,
  /// fsynced once, so all of them are on stable storage when this returns.
  /// A crash mid-batch leaves a prefix of whole records and at most one torn
  /// one -- what a crash between single-record appends leaves. Validation
  /// runs before anything is written. The `crash_after_wal_appends` fault
  /// seam still counts records, not batches.
  Status AppendBatch(std::span<const FeatureSet> instants);

  /// Flushes and fsyncs everything appended so far (a checkpoint barrier
  /// under `WalFsync::kNever`).
  Status Sync();

  /// Sequence number the next `Append` will write.
  uint64_t next_seq() const { return next_seq_; }

  const std::string& path() const { return path_; }

 private:
  WalWriter(std::string path, WalFsync fsync, uint64_t next_seq);

  static Result<std::unique_ptr<WalWriter>> OpenImpl(const std::string& path,
                                                     WalFsync fsync,
                                                     uint64_t next_seq,
                                                     uint64_t valid_bytes,
                                                     uint64_t fresh_seq);

  std::string path_;
  WalFsync fsync_;
  uint64_t next_seq_;
  std::ofstream out_;
  int sync_fd_ = -1;
};

}  // namespace ppm::tsdb

#endif  // PPM_TSDB_WAL_H_

#ifndef PPM_TSDB_SERIES_SOURCE_H_
#define PPM_TSDB_SERIES_SOURCE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "tsdb/binary_format.h"
#include "tsdb/symbol_table.h"
#include "tsdb/time_series.h"
#include "util/status.h"

namespace ppm::tsdb {

/// Accounting of how a miner touched the underlying series.
///
/// The paper's central efficiency claim is about the *number of scans over
/// the time series database*; every miner in this library reads its input
/// through a `SeriesSource`, so scan counts in benchmarks and tests are
/// measured, not asserted.
struct ScanStats {
  /// Number of times a full scan was started.
  uint64_t scans = 0;
  /// Total instants delivered across all scans.
  uint64_t instants_read = 0;
  /// Bytes read from storage (file-backed sources only).
  uint64_t bytes_read = 0;
};

/// Sequential, restartable access to a feature time series.
///
/// Usage follows the RocksDB iterator idiom:
///
///   PPM_RETURN_IF_ERROR(source.StartScan());
///   FeatureSet instant;
///   while (source.Next(&instant)) { ... }
///   PPM_RETURN_IF_ERROR(source.status());
class SeriesSource {
 public:
  virtual ~SeriesSource() = default;

  SeriesSource(const SeriesSource&) = delete;
  SeriesSource& operator=(const SeriesSource&) = delete;

  /// Positions the source at the first instant and increments the scan count.
  virtual Status StartScan() = 0;

  /// Fetches the next instant into `*out`. Returns false at end-of-series or
  /// on error; distinguish the two via `status()`.
  virtual bool Next(FeatureSet* out) = 0;

  /// Error state of the current scan; OK at a clean end-of-series.
  virtual Status status() const = 0;

  /// Number of instants in the series.
  virtual uint64_t length() const = 0;

  /// Symbol table naming the series' features.
  virtual const SymbolTable& symbols() const = 0;

  const ScanStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ScanStats(); }

 protected:
  SeriesSource();

  ScanStats stats_;
  // Process-global mirrors of `stats_` (`ppm.source.*`), so run reports see
  // series traffic without threading the source through every layer.
  obs::Counter scans_counter_;
  obs::Counter instants_counter_;
  obs::Counter bytes_counter_;
};

/// Zero-copy source over an in-memory `TimeSeries` (not owned; the series
/// must outlive the source).
class InMemorySeriesSource : public SeriesSource {
 public:
  explicit InMemorySeriesSource(const TimeSeries* series);

  Status StartScan() override;
  bool Next(FeatureSet* out) override;
  Status status() const override { return Status::OK(); }
  uint64_t length() const override;
  const SymbolTable& symbols() const override;

 private:
  const TimeSeries* series_;
  uint64_t position_ = 0;
};

/// Streaming source over a binary series file written by
/// `WriteBinarySeries`. Each `StartScan` re-reads the file from the start of
/// the instant data, so `stats().bytes_read` reflects true re-scan cost.
///
/// v3 files are integrity-checked once at `Open` (header and payload CRCs,
/// one extra sequential pass over the payload); scans then stream the
/// verified region without recomputing checksums. Parsing goes through the
/// same `internal::SeriesFileReader` as `ReadBinarySeries`, so the two
/// accept and reject exactly the same files.
class FileSeriesSource : public SeriesSource {
 public:
  /// Opens `path`, validates the header, and loads the symbol table.
  static Result<std::unique_ptr<FileSeriesSource>> Open(const std::string& path);

  Status StartScan() override;
  bool Next(FeatureSet* out) override;
  Status status() const override { return status_; }
  uint64_t length() const override { return reader_->num_instants(); }
  const SymbolTable& symbols() const override { return symbols_; }

 private:
  FileSeriesSource() = default;

  SymbolTable symbols_;
  std::unique_ptr<internal::SeriesFileReader> reader_;
  uint64_t delivered_ = 0;
  Status status_;
};

}  // namespace ppm::tsdb

#endif  // PPM_TSDB_SERIES_SOURCE_H_

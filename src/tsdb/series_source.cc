#include "tsdb/series_source.h"

#include <utility>

#include "util/check.h"

namespace ppm::tsdb {

SeriesSource::SeriesSource()
    : scans_counter_(obs::MetricsRegistry::Global().GetCounter("ppm.source.scans")),
      instants_counter_(
          obs::MetricsRegistry::Global().GetCounter("ppm.source.instants_read")),
      bytes_counter_(
          obs::MetricsRegistry::Global().GetCounter("ppm.source.bytes_read")) {}

InMemorySeriesSource::InMemorySeriesSource(const TimeSeries* series)
    : series_(series) {
  PPM_CHECK(series != nullptr);
}

Status InMemorySeriesSource::StartScan() {
  position_ = 0;
  ++stats_.scans;
  scans_counter_.Inc();
  return Status::OK();
}

bool InMemorySeriesSource::Next(FeatureSet* out) {
  if (position_ >= series_->length()) return false;
  *out = series_->at(position_++);
  ++stats_.instants_read;
  instants_counter_.Inc();
  return true;
}

uint64_t InMemorySeriesSource::length() const { return series_->length(); }

const SymbolTable& InMemorySeriesSource::symbols() const {
  return series_->symbols();
}

Result<std::unique_ptr<FileSeriesSource>> FileSeriesSource::Open(
    const std::string& path) {
  std::unique_ptr<FileSeriesSource> source(new FileSeriesSource());
  PPM_ASSIGN_OR_RETURN(source->reader_, internal::SeriesFileReader::Open(
                                            path, &source->symbols_));
  return source;
}

Status FileSeriesSource::StartScan() {
  delivered_ = 0;
  status_ = reader_->Rewind();
  if (!status_.ok()) return status_;
  ++stats_.scans;
  scans_counter_.Inc();
  return Status::OK();
}

bool FileSeriesSource::Next(FeatureSet* out) {
  if (!status_.ok() || delivered_ >= reader_->num_instants()) return false;
  uint64_t encoded_bytes = 0;
  status_ = reader_->Next(out, &encoded_bytes);
  if (!status_.ok()) return false;
  ++delivered_;
  ++stats_.instants_read;
  stats_.bytes_read += encoded_bytes;
  instants_counter_.Inc();
  bytes_counter_.Inc(encoded_bytes);
  return true;
}

}  // namespace ppm::tsdb

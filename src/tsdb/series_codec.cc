#include "tsdb/series_codec.h"

#include <cctype>
#include <fstream>
#include <memory>
#include <string_view>

#include "tsdb/binary_format.h"
#include "util/bytes.h"
#include "util/crc32c.h"
#include "util/string_util.h"

namespace ppm::tsdb {

namespace {

/// Serialized symbol table + instant count (every version's header fields).
std::string EncodeHeaderBlock(const TimeSeries& series) {
  std::string header;
  const SymbolTable& symbols = series.symbols();
  bytes::PutU32(&header, symbols.size());
  for (const std::string& name : symbols.names()) {
    bytes::PutString(&header, name);
  }
  bytes::PutU64(&header, series.length());
  return header;
}

}  // namespace

Status WriteBinarySeries(const TimeSeries& series, const std::string& path,
                         BinaryFormatVersion version) {
  const std::string header = EncodeHeaderBlock(series);
  std::string instants;
  for (const FeatureSet& instant : series.instants()) {
    if (version == BinaryFormatVersion::kV1) {
      bytes::PutU32(&instants, instant.Count());
      instant.ForEach([&instants](uint32_t id) {
        bytes::PutU32(&instants, id);
      });
    } else {
      internal::EncodeInstant(instant, &instants);
    }
  }

  // Blocks are buffered so the v3 CRCs are known before anything hits the
  // file; the framing lengths double as truncation checks on read.
  std::string file;
  if (version == BinaryFormatVersion::kV3) {
    file.append(internal::kMagicV3, sizeof(internal::kMagicV3));
    bytes::PutU32(&file, static_cast<uint32_t>(header.size()));
    bytes::PutU32(&file, crc32c::Value(header));
    file += header;
    bytes::PutU64(&file, instants.size());
    bytes::PutU32(&file, crc32c::Value(instants));
  } else {
    file.append(version == BinaryFormatVersion::kV1 ? internal::kMagic
                                                    : internal::kMagicV2,
                sizeof(internal::kMagic));
    file += header;
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out.write(file.data(), static_cast<std::streamsize>(file.size()));
  out.write(instants.data(), static_cast<std::streamsize>(instants.size()));
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<TimeSeries> ReadBinarySeries(const std::string& path) {
  TimeSeries series;
  PPM_ASSIGN_OR_RETURN(
      const std::unique_ptr<internal::SeriesFileReader> reader,
      internal::SeriesFileReader::Open(path, &series.symbols()));
  uint64_t encoded_bytes = 0;
  for (uint64_t t = 0; t < reader->num_instants(); ++t) {
    FeatureSet instant;
    PPM_RETURN_IF_ERROR(reader->Next(&instant, &encoded_bytes));
    series.Append(std::move(instant));
  }
  return series;
}

Status WriteTextSeries(const TimeSeries& series, const std::string& path) {
  for (const std::string& name : series.symbols().names()) {
    if (name.empty()) return Status::InvalidArgument("empty feature name");
    if (name.front() == '#') {
      return Status::InvalidArgument("feature name starts with '#': " + name);
    }
    for (char c : name) {
      if (std::isspace(static_cast<unsigned char>(c))) {
        return Status::InvalidArgument("feature name has whitespace: " + name);
      }
    }
  }

  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: " + path);
  for (const FeatureSet& instant : series.instants()) {
    bool first = true;
    instant.ForEach([&](uint32_t id) {
      if (!first) out << ' ';
      first = false;
      out << series.symbols().NameOrPlaceholder(id);
    });
    out << '\n';
  }
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<TimeSeries> ReadTextSeries(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for read: " + path);

  TimeSeries series;
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view stripped = StripWhitespace(line);
    if (!stripped.empty() && stripped.front() == '#') continue;
    FeatureSet features;
    for (const std::string& token : SplitSkipEmpty(stripped, ' ')) {
      features.Set(series.symbols().Intern(token));
    }
    series.Append(std::move(features));
  }
  if (in.bad()) return Status::IoError("read failed: " + path);
  return series;
}

}  // namespace ppm::tsdb

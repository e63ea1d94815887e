#ifndef PPM_TSDB_BINARY_FORMAT_H_
#define PPM_TSDB_BINARY_FORMAT_H_

#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <streambuf>
#include <string>
#include <string_view>

#include "tsdb/symbol_table.h"
#include "tsdb/time_series.h"
#include "util/bytes.h"
#include "util/status.h"

namespace ppm::tsdb::internal {

/// On-disk binary series layout (little-endian):
///
///   magic            8 bytes  "PPMTS1\n\0"
///   num_symbols      u32
///   num_symbols x    { name_len u32, name bytes }
///   num_instants     u64
///   num_instants x   { num_features u32, feature ids u32 each }
inline constexpr char kMagic[8] = {'P', 'P', 'M', 'T', 'S', '1', '\n', '\0'};

/// Upper bound on a single symbol name's encoded length; readers reject
/// larger values as corruption before allocating.
inline constexpr uint32_t kMaxSymbolNameBytes = 1 << 20;

/// Upper bound on a v3 block's declared length; readers reject larger
/// values as corruption before allocating the block buffer.
inline constexpr uint64_t kMaxBlockBytes = uint64_t{1} << 31;

/// Version 2 layout: identical header (magic aside), but instant data is
/// compressed -- per instant a varint feature count followed by the sorted
/// feature ids delta-encoded as varints (first id absolute, then gaps).
/// Typically 3-4x smaller than v1 for realistic series.
inline constexpr char kMagicV2[8] = {'P', 'P', 'M', 'T', 'S', '2', '\n', '\0'};

/// Version 3 layout: v2's compressed payload wrapped in CRC32C-checksummed
/// blocks so truncation and bit rot are always detected before decoding
/// (docs/FILE_FORMATS.md, docs/ROBUSTNESS.md):
///
///   magic            8 bytes  "PPMTS3\n\0"
///   header_len       u32      bytes in the header block
///   header_crc       u32      CRC32C of the header block
///   header block:    num_symbols u32, num_symbols x { name_len u32, name },
///                    num_instants u64
///   payload_len      u64      bytes in the payload block
///   payload_crc      u32      CRC32C of the payload block
///   payload block:   num_instants x v2-encoded instants
///
/// Readers verify each block's CRC before parsing a single field of it.
inline constexpr char kMagicV3[8] = {'P', 'P', 'M', 'T', 'S', '3', '\n', '\0'};

/// The v2 instant codec, shared by `.ppmts` v2/v3 and the WAL: a varint
/// feature count, then the ascending ids as varints -- the first absolute,
/// each later one as its gap (>= 1) from the previous id.
void EncodeInstant(const FeatureSet& instant, std::string* out);

/// Decodes one v2 instant into `*out` (reset first). Every id must be below
/// `id_limit` (the symbol count for `.ppmts`, the id cap + 1 for the WAL).
/// `kCorruption` on truncation, an overlong varint, a count above
/// `id_limit` or the bytes left, a zero gap, or an id at or past the limit.
Status DecodeInstant(bytes::ByteReader* in, uint32_t id_limit,
                     FeatureSet* out);

/// The one `.ppmts` parser, behind both `ReadBinarySeries` and
/// `FileSeriesSource`. `Open` checks the magic, parses the symbol table and
/// instant count, and for v3 verifies both block CRCs (one sequential pass
/// over the payload); `Next` then decodes instants one at a time through a
/// bounded read window, so a scan holds O(window) bytes whatever the file
/// size. Reads go through the `FaultInjector` seam. Every format error is
/// `kCorruption`; the reader keeps no counters.
class SeriesFileReader {
 public:
  /// Opens `path` and interns its symbol table into `*symbols` (empty on
  /// entry, owned by the caller, which the reader does not keep).
  static Result<std::unique_ptr<SeriesFileReader>> Open(
      const std::string& path, SymbolTable* symbols);

  /// Positions the reader at the first instant.
  Status Rewind();

  /// Decodes the next instant into `*out`; `*encoded_bytes` receives its
  /// size on disk. Callers stop after `num_instants()` calls.
  Status Next(FeatureSet* out, uint64_t* encoded_bytes);

  uint64_t num_instants() const { return num_instants_; }

 private:
  SeriesFileReader() : in_(nullptr) {}

  /// Reads until `need` unconsumed bytes are buffered or the data region
  /// ends.
  void Fill(size_t need);
  std::string_view Buffered() const {
    return std::string_view(window_).substr(pos_);
  }
  Status Corrupt(std::string_view what) const;

  std::string path_;
  std::ifstream file_;
  // Reads go through `in_`, whose buffer is either the file's own or a
  // fault-injecting wrapper around it (tests); `fault_buf_` owns the latter.
  std::unique_ptr<std::streambuf> fault_buf_;
  std::istream in_;
  uint32_t num_symbols_ = 0;  // Every feature id is below this.
  uint64_t num_instants_ = 0;
  bool fixed_width_ = false;  // v1 fixed-width vs v2/v3 delta+varint data.
  uint64_t data_offset_ = 0;  // File offset of the first instant.
  uint64_t data_end_ = UINT64_MAX;  // v3: end of the payload block.
  size_t max_instant_bytes_ = 0;
  // Read window: `window_[pos_, size)` is buffered and unconsumed;
  // `read_offset_` is the file offset just past `window_`.
  std::string window_;
  size_t pos_ = 0;
  uint64_t read_offset_ = 0;
  bool at_end_ = false;
};

}  // namespace ppm::tsdb::internal

#endif  // PPM_TSDB_BINARY_FORMAT_H_

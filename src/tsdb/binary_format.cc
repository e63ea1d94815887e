#include "tsdb/binary_format.h"

#include <algorithm>
#include <utility>

#include "tsdb/fault_injection.h"
#include "util/crc32c.h"

namespace ppm::tsdb::internal {

namespace {

using bytes::ByteReader;

/// Bytes requested from the file per refill of the read window.
constexpr size_t kWindowChunkBytes = 64 * 1024;

/// Parses the header fields every version shares (symbol table, instant
/// count). Messages name the field; callers append the file.
Status ParseHeaderFields(ByteReader* in, SymbolTable* symbols,
                         uint64_t* num_instants) {
  uint32_t num_symbols = 0;
  if (!in->ReadU32(&num_symbols)) return Status::Corruption("truncated header");
  std::string name;
  for (uint32_t i = 0; i < num_symbols; ++i) {
    // Capped before allocating: a corrupt length must not trigger a
    // multi-gigabyte allocation.
    if (!in->ReadString(&name, kMaxSymbolNameBytes)) {
      return Status::Corruption(in->truncated()
                                    ? "truncated symbol table"
                                    : "implausible symbol name length");
    }
    if (symbols->Intern(name) != i) {
      return Status::Corruption("duplicate symbol: " + name);
    }
  }
  if (!in->ReadU64(num_instants)) return Status::Corruption("truncated length");
  return Status::OK();
}

/// One v1 instant: u32 count, then that many u32 ids (any order).
Status DecodeInstantV1(ByteReader* in, uint32_t id_limit, FeatureSet* out) {
  out->Reset();
  uint32_t count = 0;
  if (!in->ReadU32(&count)) return Status::Corruption("truncated instant");
  if (count > id_limit) {
    return Status::Corruption("instant feature count " +
                              std::to_string(count) + " exceeds symbol table");
  }
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t id = 0;
    if (!in->ReadU32(&id)) return Status::Corruption("truncated feature id");
    if (id >= id_limit) {
      return Status::Corruption("feature id out of range: " +
                                std::to_string(id));
    }
    out->Set(id);
  }
  return Status::OK();
}

}  // namespace

void EncodeInstant(const FeatureSet& instant, std::string* out) {
  bytes::PutVarint32(out, instant.Count());
  // ForEach iterates ascending, so delta encoding needs no sort.
  uint32_t previous = 0;
  bool first = true;
  instant.ForEach([&](uint32_t id) {
    bytes::PutVarint32(out, first ? id : id - previous);
    previous = id;
    first = false;
  });
}

Status DecodeInstant(ByteReader* in, uint32_t id_limit, FeatureSet* out) {
  out->Reset();
  uint32_t count = 0;
  if (!in->ReadVarint32(&count)) {
    return Status::Corruption("truncated instant");
  }
  // Ids are distinct and each takes at least one byte, so a larger count is
  // hostile: fail fast instead of looping through bogus reads.
  if (count > id_limit || count > in->remaining()) {
    return Status::Corruption("instant feature count " +
                              std::to_string(count) + " is implausible");
  }
  uint32_t previous = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t value = 0;
    if (!in->ReadVarint32(&value)) {
      return Status::Corruption("truncated feature id");
    }
    if (i > 0 && value == 0) return Status::Corruption("zero feature gap");
    // `previous < id_limit`, so this is `previous + value >= id_limit`
    // without the overflow.
    if (value >= id_limit - previous) {
      return Status::Corruption("feature id out of range");
    }
    previous += value;
    out->Set(previous);
  }
  return Status::OK();
}

Result<std::unique_ptr<SeriesFileReader>> SeriesFileReader::Open(
    const std::string& path, SymbolTable* symbols) {
  FaultInjector& injector = FaultInjector::Global();
  if (injector.ConsumeTransientReadFailure()) {
    return Status::IoError("injected transient read failure: " + path);
  }
  std::unique_ptr<SeriesFileReader> reader(new SeriesFileReader());
  reader->path_ = path;
  reader->file_.open(path, std::ios::binary);
  if (!reader->file_) return Status::IoError("cannot open for read: " + path);
  // Test seam: when armed, reads go through a deterministic fault-injecting
  // buffer (bit flips, short reads); disarmed this is a single atomic load.
  reader->fault_buf_ = injector.MaybeWrap(reader->file_.rdbuf());
  reader->in_.rdbuf(reader->fault_buf_ != nullptr ? reader->fault_buf_.get()
                                                  : reader->file_.rdbuf());
  PPM_RETURN_IF_ERROR(reader->Rewind());  // Window at offset 0.

  reader->Fill(sizeof(kMagic));
  const std::string_view magic = reader->Buffered().substr(0, sizeof(kMagic));
  const bool v3 = magic == std::string_view(kMagicV3, sizeof(kMagicV3));
  reader->fixed_width_ = magic == std::string_view(kMagic, sizeof(kMagic));
  if (!v3 && !reader->fixed_width_ &&
      magic != std::string_view(kMagicV2, sizeof(kMagicV2))) {
    return reader->Corrupt("bad magic");
  }

  if (v3) {
    // Each block's CRC is verified before any of its fields are parsed.
    reader->Fill(sizeof(kMagicV3) + 8);
    ByteReader framing(reader->Buffered().substr(sizeof(kMagicV3)));
    uint32_t header_len = 0;
    uint32_t header_crc = 0;
    if (!framing.ReadU32(&header_len) || !framing.ReadU32(&header_crc)) {
      return reader->Corrupt("truncated v3 framing");
    }
    if (header_len > kMaxBlockBytes) {
      return reader->Corrupt("implausible v3 header length");
    }
    const size_t header_at = sizeof(kMagicV3) + 8;
    reader->Fill(header_at + header_len + 12);
    ByteReader blocks(reader->Buffered().substr(header_at));
    std::string_view header;
    if (!blocks.ReadBytes(header_len, &header)) {
      return reader->Corrupt("truncated v3 header block");
    }
    if (crc32c::Value(header) != header_crc) {
      return reader->Corrupt("v3 header checksum mismatch");
    }
    ByteReader fields(header);
    const Status parsed =
        ParseHeaderFields(&fields, symbols, &reader->num_instants_);
    if (!parsed.ok()) return reader->Corrupt(parsed.message());
    uint64_t payload_len = 0;
    uint32_t payload_crc = 0;
    if (!blocks.ReadU64(&payload_len) || !blocks.ReadU32(&payload_crc)) {
      return reader->Corrupt("truncated v3 framing");
    }
    if (payload_len > kMaxBlockBytes) {
      return reader->Corrupt("implausible v3 payload length");
    }
    reader->data_offset_ = header_at + blocks.position();
    reader->data_end_ = reader->data_offset_ + payload_len;

    // One integrity pass over the payload now, so every later scan can
    // stream the verified bytes without recomputing the checksum.
    PPM_RETURN_IF_ERROR(reader->Rewind());
    uint32_t crc = 0;
    for (uint64_t left = payload_len; left > 0;) {
      reader->Fill(
          static_cast<size_t>(std::min<uint64_t>(left, kWindowChunkBytes)));
      const std::string_view chunk = reader->Buffered();
      if (chunk.empty()) return reader->Corrupt("truncated v3 payload block");
      crc = crc32c::Extend(crc, chunk.data(), chunk.size());
      reader->pos_ += chunk.size();
      left -= chunk.size();
    }
    if (crc != payload_crc) {
      return reader->Corrupt("v3 payload checksum mismatch");
    }
  } else {
    // The v1/v2 header has no length prefix: parse what is buffered and
    // widen the window until the header fits or the file ends.
    while (true) {
      ByteReader fields(reader->Buffered().substr(sizeof(kMagic)));
      *symbols = SymbolTable();
      const Status parsed =
          ParseHeaderFields(&fields, symbols, &reader->num_instants_);
      if (parsed.ok()) {
        reader->data_offset_ = sizeof(kMagic) + fields.position();
        break;
      }
      if (!fields.truncated() || reader->at_end_) {
        return reader->Corrupt(parsed.message());
      }
      reader->Fill(2 * reader->window_.size());
    }
  }
  // A whole instant always fits in the window: a count plus one id per
  // symbol, at most 5 (varint) or 4 (v1) bytes each.
  reader->num_symbols_ = symbols->size();
  reader->max_instant_bytes_ = (reader->fixed_width_ ? 4 : 5) *
                               (size_t{1} + reader->num_symbols_);
  // Sized once so refills never reallocate mid-scan.
  reader->window_.reserve(kWindowChunkBytes + reader->max_instant_bytes_);
  PPM_RETURN_IF_ERROR(reader->Rewind());
  return reader;
}

Status SeriesFileReader::Rewind() {
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(data_offset_));
  if (!in_) return Status::IoError("seek failed: " + path_);
  window_.clear();
  pos_ = 0;
  read_offset_ = data_offset_;
  at_end_ = read_offset_ >= data_end_;
  return Status::OK();
}

void SeriesFileReader::Fill(size_t need) {
  if (window_.size() - pos_ >= need || at_end_) return;
  window_.erase(0, pos_);
  pos_ = 0;
  while (window_.size() < need && !at_end_) {
    // Grow geometrically rather than straight to `need`: a corrupt length
    // then costs at most about twice the bytes the file really holds.
    const size_t want = static_cast<size_t>(
        std::min<uint64_t>(std::max(kWindowChunkBytes, window_.size()),
                           data_end_ - read_offset_));
    const size_t old_size = window_.size();
    window_.resize(old_size + want);
    in_.read(window_.data() + old_size, static_cast<std::streamsize>(want));
    const size_t got = static_cast<size_t>(in_.gcount());
    window_.resize(old_size + got);
    read_offset_ += got;
    at_end_ = got < want || read_offset_ >= data_end_;
  }
}

Status SeriesFileReader::Next(FeatureSet* out, uint64_t* encoded_bytes) {
  Fill(max_instant_bytes_);
  ByteReader in(Buffered());
  const Status decoded = fixed_width_
                             ? DecodeInstantV1(&in, num_symbols_, out)
                             : DecodeInstant(&in, num_symbols_, out);
  if (!decoded.ok()) return Corrupt(decoded.message());
  pos_ += in.position();
  *encoded_bytes = in.position();
  return Status::OK();
}

Status SeriesFileReader::Corrupt(std::string_view what) const {
  return Status::Corruption(std::string(what) + " in " + path_);
}

}  // namespace ppm::tsdb::internal

#ifndef PPM_UTIL_BYTES_H_
#define PPM_UTIL_BYTES_H_

// The byte-level layer under every binary format in the repo (`.ppmts`,
// WAL, checkpoint, PPMRPC1 wire, dist plan/result): little-endian fixed
// integers, LEB128 varints, length-prefixed strings, and the CRC-32C
// single-block file container. Formats decide *what* goes where; this file
// is the only place that decides how an integer becomes bytes.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/status.h"

namespace ppm::bytes {

// ---------------------------------------------------------------------------
// Encoding: append to a byte string.

inline void PutU8(std::string* out, uint8_t value) {
  out->push_back(static_cast<char>(value));
}

inline void PutU32(std::string* out, uint32_t value) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>(value >> (8 * i));
  out->append(buf, 4);
}

inline void PutU64(std::string* out, uint64_t value) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(value >> (8 * i));
  out->append(buf, 8);
}

/// A double travels as its IEEE-754 bit pattern in a u64.
inline void PutF64(std::string* out, double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  PutU64(out, bits);
}

/// u32 length, then the bytes.
inline void PutString(std::string* out, std::string_view value) {
  PutU32(out, static_cast<uint32_t>(value.size()));
  out->append(value.data(), value.size());
}

/// LEB128 unsigned varint: 1..5 bytes for a 32-bit value.
inline void PutVarint32(std::string* out, uint32_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

// ---------------------------------------------------------------------------
// Decoding: a bounds-checked sequential reader over a byte view.

/// Every getter returns false -- and consumes nothing -- when the value is
/// not fully present or is malformed; callers turn that into their own
/// status code (`kCorruption` for files, `kInvalidArgument` for wire
/// payloads). `truncated()` tells "ran out of bytes" apart from "malformed",
/// for callers that can fetch more input and retry.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool ReadU8(uint8_t* value) {
    if (!Need(1)) return false;
    *value = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }

  bool ReadU32(uint32_t* value) {
    if (!Need(4)) return false;
    uint32_t out = 0;
    for (int i = 0; i < 4; ++i) out |= uint32_t{Byte(pos_ + i)} << (8 * i);
    pos_ += 4;
    *value = out;
    return true;
  }

  bool ReadU64(uint64_t* value) {
    if (!Need(8)) return false;
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) out |= uint64_t{Byte(pos_ + i)} << (8 * i);
    pos_ += 8;
    *value = out;
    return true;
  }

  bool ReadF64(double* value) {
    uint64_t bits = 0;
    if (!ReadU64(&bits)) return false;
    std::memcpy(value, &bits, sizeof(bits));
    return true;
  }

  /// LEB128 varint; an encoding longer than 5 bytes is malformed.
  bool ReadVarint32(uint32_t* value) {
    uint32_t out = 0;
    for (size_t i = 0; i < 5; ++i) {
      if (!Need(i + 1)) return false;
      const uint8_t byte = Byte(pos_ + i);
      out |= static_cast<uint32_t>(byte & 0x7f) << (7 * i);
      if ((byte & 0x80) == 0) {
        pos_ += i + 1;
        *value = out;
        return true;
      }
    }
    return false;  // Overlong encoding.
  }

  /// The next `n` bytes, as a view into the underlying data.
  bool ReadBytes(size_t n, std::string_view* out) {
    if (!Need(n)) return false;
    *out = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  /// A `PutString` value; a length above `max_len` is refused before any
  /// allocation.
  bool ReadString(std::string* value, uint32_t max_len = UINT32_MAX) {
    ByteReader probe = *this;
    uint32_t len = 0;
    std::string_view bytes;
    const bool ok = probe.ReadU32(&len) && len <= max_len &&
                    probe.ReadBytes(len, &bytes);
    truncated_ = probe.truncated_;
    if (!ok) return false;
    value->assign(bytes.data(), bytes.size());
    pos_ = probe.pos_;
    return true;
  }

  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }
  /// True once any read failed for want of bytes.
  bool truncated() const { return truncated_; }

 private:
  bool Need(size_t n) {
    if (remaining() >= n) return true;
    truncated_ = true;
    return false;
  }
  uint8_t Byte(size_t at) const { return static_cast<uint8_t>(data_[at]); }

  std::string_view data_;
  size_t pos_ = 0;
  bool truncated_ = false;
};

// ---------------------------------------------------------------------------
// Single-block file container, shared by the stream checkpoint and the dist
// plan and result files:
//
//   magic      8 bytes   format tag, e.g. "PPMCKP1\n"
//   body_len   u64       bytes in the body
//   body_crc   u32       CRC-32C of the body
//   body       body_len bytes
//
// Readers verify the whole container -- magic, exact length, CRC -- before
// a single body field is parsed.

inline constexpr size_t kFileMagicBytes = 8;
inline constexpr size_t kFrameFileHeaderBytes = kFileMagicBytes + 8 + 4;

/// `magic` (its first `kFileMagicBytes` bytes) + frame(`body`).
std::string FrameFile(const char* magic, std::string_view body);

/// Verifies a `FrameFile` container and returns a view of its body inside
/// `bytes`. Any framing or checksum mismatch is `kCorruption`, with `name`
/// (typically the path) in the message.
Result<std::string_view> UnframeFile(std::string_view bytes, const char* magic,
                                     std::string_view name);

}  // namespace ppm::bytes

#endif  // PPM_UTIL_BYTES_H_

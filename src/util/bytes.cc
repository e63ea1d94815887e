#include "util/bytes.h"

#include <string>

#include "util/crc32c.h"

namespace ppm::bytes {

std::string FrameFile(const char* magic, std::string_view body) {
  std::string out;
  out.reserve(kFrameFileHeaderBytes + body.size());
  out.append(magic, kFileMagicBytes);
  PutU64(&out, body.size());
  PutU32(&out, crc32c::Value(body));
  out.append(body.data(), body.size());
  return out;
}

Result<std::string_view> UnframeFile(std::string_view bytes, const char* magic,
                                     std::string_view name) {
  const auto corrupt = [name](const char* what) {
    return Status::Corruption(std::string(what) + ": " + std::string(name));
  };
  if (bytes.size() < kFrameFileHeaderBytes) return corrupt("file too short");
  if (bytes.compare(0, kFileMagicBytes, magic, kFileMagicBytes) != 0) {
    return corrupt("bad magic");
  }
  ByteReader header(bytes.substr(kFileMagicBytes));
  uint64_t body_len = 0;
  uint32_t body_crc = 0;
  header.ReadU64(&body_len);
  header.ReadU32(&body_crc);
  const std::string_view body = bytes.substr(kFrameFileHeaderBytes);
  if (body.size() != body_len) return corrupt("length mismatch");
  if (crc32c::Value(body) != body_crc) return corrupt("checksum mismatch");
  return body;
}

}  // namespace ppm::bytes

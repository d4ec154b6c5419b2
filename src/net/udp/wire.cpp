#include "net/udp/wire.h"

#include <array>

#include "util/checksum.h"
#include "util/serialize.h"

namespace dash::net::udp {

namespace {
constexpr std::size_t kChecksumOffset = kHeaderBytes - 4;
}  // namespace

const char* decode_error_name(DecodeError e) {
  switch (e) {
    case DecodeError::kNone: return "none";
    case DecodeError::kTruncated: return "truncated";
    case DecodeError::kBadMagic: return "bad_magic";
    case DecodeError::kBadVersion: return "bad_version";
    case DecodeError::kBadLength: return "bad_length";
    case DecodeError::kBadChecksum: return "bad_checksum";
  }
  return "?";
}

Header encode_header(const Packet& p) {
  Header h;
  std::size_t at = 0;
  const auto put = [&h, &at](std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) h[at++] = static_cast<std::byte>(v >> (8 * i));
  };
  put(kMagic, 2);
  put(kWireVersion, 1);
  put(p.corrupted ? kFlagCorrupted : 0, 1);
  put(p.src, 8);
  put(p.dst, 8);
  put(p.stream, 8);
  put(p.seq, 8);
  put(static_cast<std::uint64_t>(p.deadline), 8);
  put(static_cast<std::uint32_t>(p.priority), 4);
  put(static_cast<std::uint32_t>(p.payload.size()), 4);
  const std::array<BytesView, 2> chain = {BytesView(h.data(), kChecksumOffset),
                                          p.payload.view()};
  put(crc32(ViewChain(chain)), 4);
  return h;
}

Bytes encode(const Packet& p) {
  const Header h = encode_header(p);
  Bytes out;
  out.reserve(kHeaderBytes + p.payload.size());
  append(out, h);
  append(out, p.payload.view());
  return out;
}

DecodeError decode(BytesView datagram, Packet& out) {
  if (datagram.size() < kHeaderBytes) return DecodeError::kTruncated;
  Reader r(datagram);
  if (*r.u16() != kMagic) return DecodeError::kBadMagic;
  if (*r.u8() != kWireVersion) return DecodeError::kBadVersion;
  const std::uint8_t flags = *r.u8();
  out.src = *r.u64();
  out.dst = *r.u64();
  out.stream = *r.u64();
  out.seq = *r.u64();
  out.deadline = *r.i64();
  out.priority = static_cast<int>(*r.u32());
  const std::uint32_t payload_len = *r.u32();
  const std::uint32_t wire_crc = *r.u32();
  if (datagram.size() != kHeaderBytes + payload_len) {
    return DecodeError::kBadLength;
  }
  const std::array<BytesView, 2> chain = {
      datagram.subspan(0, kChecksumOffset), datagram.subspan(kHeaderBytes)};
  if (crc32(ViewChain(chain)) != wire_crc) return DecodeError::kBadChecksum;
  out.corrupted = (flags & kFlagCorrupted) != 0;
  out.payload = Buffer(datagram.subspan(kHeaderBytes));  // one exact-size block
  return DecodeError::kNone;
}

}  // namespace dash::net::udp

// Byte-order helpers. All header fields are stored on the wire in network
// (big-endian) order; accessors convert to/from host order explicitly.
#pragma once

#include "common/types.hpp"

namespace nfp {

constexpr u16 load_be16(const u8* p) noexcept {
  return static_cast<u16>((static_cast<u16>(p[0]) << 8) | p[1]);
}

constexpr u32 load_be32(const u8* p) noexcept {
  return (static_cast<u32>(p[0]) << 24) | (static_cast<u32>(p[1]) << 16) |
         (static_cast<u32>(p[2]) << 8) | p[3];
}

constexpr void store_be16(u8* p, u16 v) noexcept {
  p[0] = static_cast<u8>(v >> 8);
  p[1] = static_cast<u8>(v);
}

constexpr void store_be32(u8* p, u32 v) noexcept {
  p[0] = static_cast<u8>(v >> 24);
  p[1] = static_cast<u8>(v >> 16);
  p[2] = static_cast<u8>(v >> 8);
  p[3] = static_cast<u8>(v);
}

constexpr void store_be64(u8* p, u64 v) noexcept {
  store_be32(p, static_cast<u32>(v >> 32));
  store_be32(p + 4, static_cast<u32>(v));
}

}  // namespace nfp

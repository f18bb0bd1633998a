// The two AES-128 modes the VPN runs, CTR and CBC-MAC, written once over a
// block primitive. A primitive encrypts one 16-byte block (`encrypt1`) or
// four independent blocks (`encrypt4`, 64 bytes in and out); only the
// primitive differs between the byte-wise path and the AES-NI path.
//
// Internal to src/crypto (and its tests): Aes128::ctr_crypt / Aes128::icv
// are the public entry points and pick the primitive once per process.
#pragma once

#include <algorithm>
#include <array>
#include <cstring>
#include <span>

#include "common/types.hpp"
#include "crypto/aes128.hpp"
#include "packet/endian.hpp"

namespace nfp::aes_modes {

// dst[0..n) ^= src[0..n), eight bytes at a time.
inline void xor_into(u8* dst, const u8* src, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    u64 a = 0;
    u64 b = 0;
    std::memcpy(&a, dst + i, 8);
    std::memcpy(&b, src + i, 8);
    a ^= b;
    std::memcpy(dst + i, &a, 8);
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

// Counter block i is nonce || (counter + i), both big-endian; the counter
// wraps modulo 2^64. Whole 64-byte stretches go four blocks at a time (CTR
// blocks are independent, so a pipelined primitive overlaps them); the
// tail goes block by block.
template <class Block>
void ctr_crypt(const Block& block, u64 nonce, u64 counter,
               std::span<u8> data) noexcept {
  u8 in[64] = {};
  u8 keystream[64] = {};
  for (int b = 0; b < 4; ++b) store_be64(in + 16 * b, nonce);
  const std::size_t n = data.size();
  std::size_t off = 0;
  for (; n - off >= 64; off += 64, counter += 4) {
    for (int b = 0; b < 4; ++b) store_be64(in + 16 * b + 8, counter + b);
    block.encrypt4(in, keystream);
    xor_into(data.data() + off, keystream, 64);
  }
  for (; off < n; off += 16, ++counter) {
    store_be64(in + 8, counter);
    block.encrypt1(in, keystream);
    xor_into(data.data() + off, keystream, std::min<std::size_t>(16, n - off));
  }
}

// CBC-MAC from a zero IV; a short last block is zero-padded. Serial: each
// block's input depends on the previous block's output.
template <class Block>
std::array<u8, 16> cbc_mac(const Block& block,
                           std::span<const u8> data) noexcept {
  std::array<u8, 16> mac{};
  const std::size_t n = data.size();
  std::size_t off = 0;
  u8 in[16] = {};
  // A fixed 16-byte XOR compiles to one vector op, keeping the chaining
  // value out of partial stores and reloads.
  for (; n - off >= 16; off += 16) {
    for (int i = 0; i < 16; ++i) {
      in[i] = static_cast<u8>(mac[i] ^ data[off + i]);
    }
    block.encrypt1(in, mac.data());
  }
  if (off < n) {
    std::memcpy(in, mac.data(), 16);
    xor_into(in, data.data() + off, n - off);
    block.encrypt1(in, mac.data());
  }
  return mac;
}

// The portable primitive: Aes128::encrypt_block, the FIPS-197-validated
// byte-wise reference.
struct BytewiseBlock {
  const Aes128& aes;

  void encrypt1(const u8 in[16], u8 out[16]) const noexcept {
    aes.encrypt_block(in, out);
  }
  void encrypt4(const u8 in[64], u8 out[64]) const noexcept {
    for (int b = 0; b < 4; ++b) aes.encrypt_block(in + 16 * b, out + 16 * b);
  }
};

#if defined(__x86_64__)
// The modes over the AES-NI primitive (crypto/aes128_aesni.cpp, the one
// file built with -maes). `round_keys` is the FIPS-order key schedule,
// 11 x 16 bytes. Call only when the CPU reports AES.
void ctr_crypt_aesni(const u8* round_keys, u64 nonce, u64 counter,
                     std::span<u8> data) noexcept;
std::array<u8, 16> cbc_mac_aesni(const u8* round_keys,
                                 std::span<const u8> data) noexcept;
#endif

}  // namespace nfp::aes_modes

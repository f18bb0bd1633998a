// AES-128 block cipher (FIPS-197) with CTR and CBC-MAC modes.
//
// Substrate for the VPN NF (paper §6.1: "encrypts a packet based on the AES
// algorithm and wraps it with an AH header"). Two block primitives:
//   - encrypt_block / decrypt_block: a byte-wise implementation of the
//     FIPS-197 round functions (S-box lookups, ShiftRows, xtime
//     MixColumns), validated against the FIPS-197 appendix vectors. It is
//     the portable path and the reference.
//   - AES-NI (AESENC / AESENCLAST), used by ctr_crypt and icv when CPUID
//     reports AES, picked once per process; it gives byte-identical output.
// The CTR and CBC-MAC loops are shared (crypto/aes128_modes.hpp).
#pragma once

#include <array>
#include <span>

#include "common/types.hpp"

namespace nfp {

class Aes128 {
 public:
  using Block = std::array<u8, 16>;
  using Key = std::array<u8, 16>;

  explicit Aes128(const Key& key) { expand_key(key); }

  void encrypt_block(const u8 in[16], u8 out[16]) const noexcept;
  void decrypt_block(const u8 in[16], u8 out[16]) const noexcept;

  // CTR mode: XORs the keystream for (nonce, counter0, counter0 + 1, ...)
  // over `data` in place; counter block i is nonce || counter0 + i, both
  // big-endian. Symmetric: applying it twice restores the plaintext.
  void ctr_crypt(u64 nonce, std::span<u8> data,
                 u64 counter0 = 0) const noexcept;

  // 96-bit integrity check value over `data` (AES-CBC-MAC truncated to 12
  // bytes) — fills the AH ICV field.
  std::array<u8, 12> icv(std::span<const u8> data) const noexcept;

  // True when ctr_crypt and icv run on AES-NI in this process.
  static bool hardware_accelerated() noexcept;

 private:
  void expand_key(const Key& key) noexcept;

  // 11 round keys of 16 bytes each, in FIPS-197 byte order (which is also
  // the AES-NI encryption schedule).
  std::array<u8, 176> round_keys_{};
};

// Equality of two byte strings in time independent of where they differ
// (for comparing MACs).
inline bool constant_time_equal(const u8* a, const u8* b,
                                std::size_t n) noexcept {
  u8 diff = 0;
  for (std::size_t i = 0; i < n; ++i) {
    diff = static_cast<u8>(diff | (a[i] ^ b[i]));
  }
  return diff == 0;
}

}  // namespace nfp

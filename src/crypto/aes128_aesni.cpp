// AES-NI block primitive for the shared CTR / CBC-MAC loops. x86-64 only;
// CMake builds this one file with -maes, and crypto/aes128.cpp calls into
// it only when CPUID reports AES.
#if defined(__x86_64__)

#include <wmmintrin.h>

#include "crypto/aes128_modes.hpp"

namespace nfp::aes_modes {
namespace {

// The FIPS-197 byte order of the state and of the round keys is the byte
// order AESENC works in, so the byte-wise key schedule loads as is.
class AesNiBlock {
 public:
  explicit AesNiBlock(const u8* round_keys) noexcept {
    for (int r = 0; r < 11; ++r) k_[r] = load(round_keys + 16 * r);
  }

  void encrypt1(const u8 in[16], u8 out[16]) const noexcept {
    __m128i s = _mm_xor_si128(load(in), k_[0]);
    for (int r = 1; r < 10; ++r) s = _mm_aesenc_si128(s, k_[r]);
    store(out, _mm_aesenclast_si128(s, k_[10]));
  }

  // Four independent blocks interleaved round by round, so each AESENC
  // issues while the previous ones are still in flight.
  void encrypt4(const u8 in[64], u8 out[64]) const noexcept {
    __m128i s0 = _mm_xor_si128(load(in), k_[0]);
    __m128i s1 = _mm_xor_si128(load(in + 16), k_[0]);
    __m128i s2 = _mm_xor_si128(load(in + 32), k_[0]);
    __m128i s3 = _mm_xor_si128(load(in + 48), k_[0]);
    for (int r = 1; r < 10; ++r) {
      s0 = _mm_aesenc_si128(s0, k_[r]);
      s1 = _mm_aesenc_si128(s1, k_[r]);
      s2 = _mm_aesenc_si128(s2, k_[r]);
      s3 = _mm_aesenc_si128(s3, k_[r]);
    }
    store(out, _mm_aesenclast_si128(s0, k_[10]));
    store(out + 16, _mm_aesenclast_si128(s1, k_[10]));
    store(out + 32, _mm_aesenclast_si128(s2, k_[10]));
    store(out + 48, _mm_aesenclast_si128(s3, k_[10]));
  }

 private:
  static __m128i load(const u8* p) noexcept {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void store(u8* p, __m128i v) noexcept {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }

  __m128i k_[11];
};

}  // namespace

void ctr_crypt_aesni(const u8* round_keys, u64 nonce, u64 counter,
                     std::span<u8> data) noexcept {
  ctr_crypt(AesNiBlock(round_keys), nonce, counter, data);
}

std::array<u8, 16> cbc_mac_aesni(const u8* round_keys,
                                 std::span<const u8> data) noexcept {
  return cbc_mac(AesNiBlock(round_keys), data);
}

}  // namespace nfp::aes_modes

#endif  // __x86_64__

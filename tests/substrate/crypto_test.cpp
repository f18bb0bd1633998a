// AES-128 validation against the FIPS-197 appendix vectors, CTR-mode and
// ICV behaviour, and a differential check of both block primitives' modes
// against CTR / CBC-MAC built from encrypt_block alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "crypto/aes128.hpp"
#include "crypto/aes128_modes.hpp"

namespace nfp {
namespace {

TEST(Aes128Test, Fips197AppendixBVector) {
  const Aes128::Key key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                           0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  const u8 plain[16] = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                        0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
  const u8 expect[16] = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb,
                         0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32};
  Aes128 aes(key);
  u8 out[16];
  aes.encrypt_block(plain, out);
  EXPECT_EQ(0, std::memcmp(out, expect, 16));
}

TEST(Aes128Test, Fips197AppendixCVector) {
  const Aes128::Key key = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                           0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
  const u8 plain[16] = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                        0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
  const u8 expect[16] = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                         0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
  Aes128 aes(key);
  u8 out[16];
  aes.encrypt_block(plain, out);
  EXPECT_EQ(0, std::memcmp(out, expect, 16));
}

TEST(Aes128Test, DecryptInvertsEncrypt) {
  const Aes128::Key key = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
                           16};
  Aes128 aes(key);
  u8 plain[16], cipher[16], round_trip[16];
  for (int i = 0; i < 16; ++i) plain[i] = static_cast<u8>(i * 17 + 3);
  aes.encrypt_block(plain, cipher);
  EXPECT_NE(0, std::memcmp(plain, cipher, 16));
  aes.decrypt_block(cipher, round_trip);
  EXPECT_EQ(0, std::memcmp(plain, round_trip, 16));
}

TEST(Aes128Test, CtrIsSymmetric) {
  Aes128 aes(Aes128::Key{0xaa});
  std::vector<u8> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<u8>(i & 0xff);
  }
  const std::vector<u8> original = data;
  aes.ctr_crypt(0x1234, data);
  EXPECT_NE(data, original);
  aes.ctr_crypt(0x1234, data);
  EXPECT_EQ(data, original);
}

TEST(Aes128Test, CtrNonceChangesKeystream) {
  Aes128 aes(Aes128::Key{0xaa});
  std::vector<u8> a(64, 0), b(64, 0);
  aes.ctr_crypt(1, a);
  aes.ctr_crypt(2, b);
  EXPECT_NE(a, b);
}

TEST(Aes128Test, CtrHandlesNonBlockMultiples) {
  Aes128 aes(Aes128::Key{0x3c});
  std::vector<u8> data(33, 0x55);
  const std::vector<u8> original = data;
  aes.ctr_crypt(9, data);
  aes.ctr_crypt(9, data);
  EXPECT_EQ(data, original);
}

TEST(Aes128Test, IcvDetectsTampering) {
  Aes128 aes(Aes128::Key{0x11});
  std::vector<u8> data(100, 0x42);
  const auto mac1 = aes.icv(data);
  data[50] ^= 1;
  const auto mac2 = aes.icv(data);
  EXPECT_NE(mac1, mac2);
}

TEST(Aes128Test, IcvDeterministic) {
  Aes128 aes(Aes128::Key{0x11});
  const std::vector<u8> data(100, 0x42);
  EXPECT_EQ(aes.icv(data), aes.icv(data));
  EXPECT_EQ(aes.icv({}), aes.icv({}));
}

// CTR straight from the definition: block i is E(nonce || counter0 + i).
void reference_ctr(const Aes128& aes, u64 nonce, u64 counter0,
                   std::vector<u8>& data) {
  for (std::size_t off = 0; off < data.size(); off += 16) {
    const u64 counter = counter0 + off / 16;
    u8 block[16];
    for (int i = 0; i < 8; ++i) {
      block[i] = static_cast<u8>(nonce >> (56 - 8 * i));
      block[8 + i] = static_cast<u8>(counter >> (56 - 8 * i));
    }
    u8 keystream[16];
    aes.encrypt_block(block, keystream);
    for (std::size_t i = off; i < std::min(off + 16, data.size()); ++i) {
      data[i] ^= keystream[i - off];
    }
  }
}

// CBC-MAC from a zero IV with a zero-padded last block, first 12 bytes.
std::array<u8, 12> reference_icv(const Aes128& aes,
                                 const std::vector<u8>& data) {
  u8 mac[16] = {};
  for (std::size_t off = 0; off < data.size(); off += 16) {
    for (std::size_t i = off; i < std::min(off + 16, data.size()); ++i) {
      mac[i - off] ^= data[i];
    }
    aes.encrypt_block(mac, mac);
  }
  std::array<u8, 12> out;
  std::memcpy(out.data(), mac, 12);
  return out;
}

// Checks ctr_crypt and icv (whichever primitive this process picked) and
// the shared loops over the byte-wise primitive against the references.
void expect_modes_match_reference(const Aes128& aes, u64 nonce, u64 counter0,
                                  const std::vector<u8>& plain) {
  SCOPED_TRACE(::testing::Message() << "len=" << plain.size() << " nonce="
                                    << nonce << " counter0=" << counter0);
  std::vector<u8> expect = plain;
  reference_ctr(aes, nonce, counter0, expect);
  const std::array<u8, 12> expect_icv = reference_icv(aes, plain);

  std::vector<u8> got = plain;
  aes.ctr_crypt(nonce, got, counter0);
  EXPECT_EQ(got, expect);
  EXPECT_EQ(aes.icv(plain), expect_icv);

  std::vector<u8> portable = plain;
  const aes_modes::BytewiseBlock bytewise{aes};
  aes_modes::ctr_crypt(bytewise, nonce, counter0, portable);
  EXPECT_EQ(portable, expect);
  const auto mac = aes_modes::cbc_mac(bytewise, plain);
  EXPECT_TRUE(std::equal(expect_icv.begin(), expect_icv.end(), mac.begin()));
}

std::vector<u8> random_bytes(Rng& rng, std::size_t n) {
  std::vector<u8> v(n);
  for (auto& b : v) b = static_cast<u8>(rng.next());
  return v;
}

Aes128::Key random_key(Rng& rng) {
  Aes128::Key key;
  for (auto& b : key) b = static_cast<u8>(rng.next());
  return key;
}

TEST(Aes128Test, ModesMatchReferenceAtBlockBoundaries) {
  Rng rng(12);
  const Aes128 aes(random_key(rng));
  for (const std::size_t len :
       {0, 1, 15, 16, 17, 63, 64, 65, 724, 1500}) {
    expect_modes_match_reference(aes, rng.next(), rng.next(),
                                 random_bytes(rng, len));
  }
}

TEST(Aes128Test, ModesMatchReferenceOnRandomInputs) {
  Rng rng(1500);
  for (int i = 0; i < 2000; ++i) {
    const Aes128 aes(random_key(rng));
    const std::size_t len = rng.bounded(1501);
    expect_modes_match_reference(aes, rng.next(), rng.next(),
                                 random_bytes(rng, len));
  }
}

TEST(Aes128Test, CtrCounterWrapsModulo2To64) {
  Rng rng(7);
  const Aes128 aes(random_key(rng));
  expect_modes_match_reference(aes, rng.next(), ~u64{0} - 2,
                               random_bytes(rng, 200));
}

TEST(Aes128Test, CtrCounterStartSelectsKeystream) {
  Aes128 aes(Aes128::Key{0xaa});
  std::vector<u8> a(64, 0), b(64, 0);
  aes.ctr_crypt(1, a, u64{1} << 32);
  aes.ctr_crypt(1, b, u64{2} << 32);
  EXPECT_NE(a, b);
}

TEST(Aes128Test, ConstantTimeEqual) {
  const u8 a[12] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  u8 b[12];
  std::memcpy(b, a, 12);
  EXPECT_TRUE(constant_time_equal(a, b, 12));
  for (int i = 0; i < 12; ++i) {
    b[i] ^= 0x80;
    EXPECT_FALSE(constant_time_equal(a, b, 12));
    b[i] ^= 0x80;
  }
  EXPECT_TRUE(constant_time_equal(a, b, 0));
}

}  // namespace
}  // namespace nfp

// VPN NF: IPsec Authentication Header tunnel endpoint (paper §6.1: "the
// tunnel mode of IPsec Authentication Header (AH) protocol. It encrypts a
// packet based on the AES algorithm and wraps it with an AH header").
//
// Encrypt direction: AES-CTR over the payload, AH inserted after the IP
// header with a CBC-MAC ICV over the encrypted payload. The CTR nonce names
// the tunnel (its addresses); the counter starts at seq << 32, where seq is
// the packet's AH sequence number, so no two packets of a tunnel share
// keystream.
// Decrypt direction (VpnDecrypt): verifies the ICV, removes the AH and
// restores the plaintext — used by round-trip tests.
#pragma once

#include <cstring>

#include "crypto/aes128.hpp"
#include "nfs/nf.hpp"

namespace nfp {

class Vpn : public NetworkFunction {
 public:
  explicit Vpn(const Aes128::Key& key = kDefaultKey, u32 spi = 0x1001)
      : aes_(key), spi_(spi) {}

  std::string_view type_name() const override { return "vpn"; }

  NfVerdict process(PacketView& packet) override {
    const u32 seq = ++sequence_;
    auto body = packet.mutable_payload();
    aes_.ctr_crypt(tunnel_nonce(packet), body, counter0(seq));
    AhView ah = packet.add_ah_header(spi_, seq);
    const auto mac = aes_.icv({body.data(), body.size()});
    std::memcpy(ah.icv(), mac.data(), mac.size());
    return NfVerdict::kPass;
  }

  ActionProfile declared_profile() const override {
    ActionProfile p;
    p.add_read(Field::kSrcIp);
    p.add_read(Field::kDstIp);
    p.add_read(Field::kPayload);
    p.add_write(Field::kPayload);
    p.add_add_rm(Field::kAhHeader);
    return p;
  }

  u32 sequence() const noexcept { return sequence_; }

  static constexpr Aes128::Key kDefaultKey = {0x2b, 0x7e, 0x15, 0x16, 0x28,
                                              0xae, 0xd2, 0xa6, 0xab, 0xf7,
                                              0x15, 0x88, 0x09, 0xcf, 0x4f,
                                              0x3c};

 protected:
  u64 tunnel_nonce(const PacketView& packet) const noexcept {
    return ((static_cast<u64>(packet.src_ip()) << 32) | packet.dst_ip()) ^
           nonce_salt_;
  }
  static constexpr u64 counter0(u32 seq) noexcept {
    return static_cast<u64>(seq) << 32;
  }

  Aes128 aes_;
  u32 spi_;
  u32 sequence_ = 0;
  u64 nonce_salt_ = 0x5a5a5a5a;
};

// Inverse direction: strips the AH and decrypts. Fails (drops) on a bad ICV.
class VpnDecrypt final : public Vpn {
 public:
  using Vpn::Vpn;

  std::string_view type_name() const override { return "vpn_decrypt"; }

  NfVerdict process(PacketView& packet) override {
    if (!packet.has_ah()) return NfVerdict::kDrop;
    auto body = packet.mutable_payload();
    const auto mac = aes_.icv({body.data(), body.size()});
    AhView ah = packet.ah();
    if (!constant_time_equal(ah.icv(), mac.data(), mac.size())) {
      return NfVerdict::kDrop;
    }
    const u32 seq = ah.sequence();
    packet.remove_ah_header();
    auto plain = packet.mutable_payload();
    aes_.ctr_crypt(tunnel_nonce(packet), plain, counter0(seq));
    return NfVerdict::kPass;
  }

  ActionProfile declared_profile() const override {
    ActionProfile p;
    p.add_read(Field::kSrcIp);
    p.add_read(Field::kDstIp);
    p.add_read(Field::kAhHeader);
    p.add_read(Field::kPayload);
    p.add_write(Field::kPayload);
    p.add_add_rm(Field::kAhHeader);
    p.add_drop();
    return p;
  }
};

}  // namespace nfp

#include "crypto/dh.hpp"

#include <stdexcept>

namespace papaya::crypto {

const DhParams& DhParams::simulation256() {
  // Largest prime below 2^256 (p = 2^256 - 189), generator 5.  Chosen for
  // simulation speed; see header comment.
  static const DhParams params{
      BigUInt::from_hex(
          "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff43"),
      BigUInt(5)};
  return params;
}

const DhParams& DhParams::rfc3526_1536() {
  static const DhParams params{
      BigUInt::from_hex(
          "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E08"
          "8A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B"
          "302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9"
          "A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE6"
          "49286651ECE45B3DC2007CB8A163BF0598DA48361C55D39A69163FA8"
          "FD24CF5F83655D23DCA3AD961C62F356208552BB9ED529077096966D"
          "670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF"),
      BigUInt(2)};
  return params;
}

DhRandom::DhRandom(std::span<const std::uint8_t> seed)
    : stream_([&] {
        static const std::string info = "papaya-dh-random-v1";
        const util::Bytes key = hkdf_sha256(
            seed, {},
            {reinterpret_cast<const std::uint8_t*>(info.data()), info.size()},
            ChaCha20::kKeySize);
        const std::array<std::uint8_t, ChaCha20::kNonceSize> nonce{};
        return ChaCha20(key, nonce);
      }()) {}

util::Bytes DhRandom::bytes(std::size_t n) { return stream_.keystream(n); }

DhKeyPair dh_generate(const DhParams& params, DhRandom& random) {
  const BigUInt upper = params.p - BigUInt(3);  // range [0, p-3)
  const BigUInt x =
      BigUInt::random_below(upper, [&](std::size_t n) { return random.bytes(n); }) +
      BigUInt(2);  // shift into [2, p-2]
  return {x, params.g.powmod(x, params.p)};
}

BigUInt dh_shared_element(const DhParams& params, const BigUInt& private_key,
                          const BigUInt& peer_public) {
  // Partial public-key validation (NIST SP 800-56A): accept [2, p-2] only.
  // 0 and p or above are out of range; 1 and p-1 generate subgroups of
  // order 1 and 2, so they would pin the shared element.
  if (peer_public.is_zero() || peer_public >= params.p) {
    throw std::invalid_argument("dh_shared_element: public key out of range");
  }
  if (peer_public == BigUInt(1) || peer_public == params.p - BigUInt(1)) {
    throw std::invalid_argument("dh_shared_element: degenerate public key");
  }
  return peer_public.powmod(private_key, params.p);
}

Digest dh_derive_key(const DhParams& params, const BigUInt& shared_element,
                     const std::string& label) {
  const util::Bytes raw = shared_element.to_bytes(params.byte_width());
  const util::Bytes okm = hkdf_sha256(
      raw, {},
      {reinterpret_cast<const std::uint8_t*>(label.data()), label.size()}, 32);
  Digest out{};
  std::copy(okm.begin(), okm.end(), out.begin());
  return out;
}

}  // namespace papaya::crypto

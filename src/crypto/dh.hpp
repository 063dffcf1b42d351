#pragma once
// Finite-field Diffie–Hellman key exchange (App. A.1).
//
// PAPAYA's Asynchronous SecAgg uses DH to establish a shared secret between
// each client and the Trusted Secure Aggregator (TSA) through the untrusted
// server.  The TSA prepares *initial messages* in advance, without knowing
// which clients will claim them; a client completes the exchange with a
// single *completing message* (Fig. 16 steps 1–3).
//
// Group choice: a 256-bit prime group is the default so that laptop-scale
// simulations with thousands of clients stay fast (~40 µs per full-width
// exponentiation on a 4-vCPU x86-64 box, g++ 12).  The RFC 3526 1536-bit
// MODP group is available for protocol-fidelity tests; at ~5 ms per
// exponentiation it is now affordable too, but the default stays at 256 bits
// because switching it would change every SecAgg key and so every recorded
// trajectory.  Neither is a statement about production parameter sizes.
//
// Public values are validated as in NIST SP 800-56A partial public-key
// validation: dh_shared_element accepts only [2, p-2].

#include <cstdint>

#include "crypto/bigint.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/sha256.hpp"
#include "util/bytes.hpp"

namespace papaya::crypto {

/// DH group parameters (prime modulus p and generator g).
struct DhParams {
  BigUInt p;
  BigUInt g;
  std::size_t byte_width() const { return (p.bit_length() + 7) / 8; }

  /// 256-bit prime group (p = 2^256 - 189, g = 5) — simulation default.
  static const DhParams& simulation256();
  /// RFC 3526 group 5 (1536-bit MODP) — protocol-fidelity testing.
  static const DhParams& rfc3526_1536();
};

/// One party's DH keypair: x private, g^x mod p public.
struct DhKeyPair {
  BigUInt private_key;
  BigUInt public_key;
};

/// Deterministic CSPRNG wrapper for key generation (seeded per entity so
/// simulations replay exactly).
class DhRandom {
 public:
  explicit DhRandom(std::span<const std::uint8_t> seed);
  util::Bytes bytes(std::size_t n);

 private:
  ChaCha20 stream_;
};

/// Generate a keypair: private key uniform in [2, p-2].
DhKeyPair dh_generate(const DhParams& params, DhRandom& random);

/// Compute the raw shared group element peer_public^private mod p.
BigUInt dh_shared_element(const DhParams& params, const BigUInt& private_key,
                          const BigUInt& peer_public);

/// Derive a 32-byte symmetric key from the shared element via HKDF with a
/// protocol-label info string (both sides must use the same label).
Digest dh_derive_key(const DhParams& params, const BigUInt& shared_element,
                     const std::string& label);

}  // namespace papaya::crypto

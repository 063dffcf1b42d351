// Unit tests for the crypto substrate: SHA-256 / HMAC / HKDF known-answer
// tests, ChaCha20 RFC 8439 vectors, big-integer arithmetic properties,
// Diffie-Hellman agreement, and authenticated-encryption tamper detection.

#include <gtest/gtest.h>

#include "crypto/auth_enc.hpp"
#include "crypto/bigint.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/dh.hpp"
#include "crypto/sha256.hpp"
#include "util/rng.hpp"

namespace papaya::crypto {
namespace {

using util::Bytes;
using util::to_hex;

Bytes from_string(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

// ---------------------------------------------------------------- SHA-256 --

TEST(Sha256, Fips180EmptyString) {
  EXPECT_EQ(to_hex(Sha256::hash(std::string(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Fips180Abc) {
  EXPECT_EQ(to_hex(Sha256::hash(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, Fips180TwoBlockMessage) {
  EXPECT_EQ(
      to_hex(Sha256::hash(std::string(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.update({reinterpret_cast<const std::uint8_t*>(chunk.data()), chunk.size()});
  }
  Digest d = h.finish();
  EXPECT_EQ(to_hex(d),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  const std::string msg = "papaya secure aggregation protocol";
  Sha256 h;
  for (char c : msg) {
    const auto b = static_cast<std::uint8_t>(c);
    h.update({&b, 1});
  }
  EXPECT_EQ(h.finish(), Sha256::hash(msg));
}

TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, from_string("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(from_string("Jefe"),
                               from_string("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(
                key, from_string("Test Using Larger Than Block-Size Key - "
                                 "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HkdfSha256, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06,
                   0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c};
  const Bytes info{0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9};
  const Bytes okm = hkdf_sha256(ikm, salt, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(HkdfSha256, DifferentInfoDifferentKeys) {
  const Bytes ikm(32, 0x42);
  const Bytes a = hkdf_sha256(ikm, {}, from_string("context-a"), 32);
  const Bytes b = hkdf_sha256(ikm, {}, from_string("context-b"), 32);
  EXPECT_NE(a, b);
}

TEST(HkdfSha256, RejectsOverlongOutput) {
  const Bytes ikm(32, 1);
  EXPECT_THROW(hkdf_sha256(ikm, {}, {}, 255 * 32 + 1), std::invalid_argument);
}

// --------------------------------------------------------------- ChaCha20 --

TEST(ChaCha20, Rfc8439Section231KeystreamBlock) {
  // RFC 8439 2.3.2 test vector: key 00..1f, nonce 000000090000004a00000000,
  // counter 1.
  Bytes key(32);
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  const Bytes nonce{0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                    0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  ChaCha20 cipher(key, nonce, 1);
  const Bytes ks = cipher.keystream(64);
  EXPECT_EQ(to_hex(ks),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, Rfc8439Section24Encryption) {
  Bytes key(32);
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  const Bytes nonce{0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                    0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.";
  Bytes data = from_string(plaintext);
  ChaCha20 cipher(key, nonce, 1);
  cipher.xor_stream(data);
  EXPECT_EQ(to_hex(Bytes(data.begin(), data.begin() + 16)),
            "6e2e359a2568f98041ba0728dd0d6981");
}

TEST(ChaCha20, EncryptDecryptRoundTrip) {
  const Bytes key(32, 0x11);
  const Bytes nonce(12, 0x22);
  Bytes data = from_string("asynchronous secure aggregation");
  const Bytes original = data;
  ChaCha20 enc(key, nonce);
  enc.xor_stream(data);
  EXPECT_NE(data, original);
  ChaCha20 dec(key, nonce);
  dec.xor_stream(data);
  EXPECT_EQ(data, original);
}

TEST(ChaCha20, RejectsBadKeyOrNonceSize) {
  const Bytes short_key(16, 0);
  const Bytes nonce(12, 0);
  EXPECT_THROW(ChaCha20(short_key, nonce), std::invalid_argument);
  const Bytes key(32, 0);
  const Bytes short_nonce(8, 0);
  EXPECT_THROW(ChaCha20(key, short_nonce), std::invalid_argument);
}

TEST(MaskPrng, DeterministicFromSeed) {
  const Bytes seed{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  MaskPrng a(seed), b(seed);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(MaskPrng, DifferentSeedsDiverge) {
  const Bytes s1(16, 0x01), s2(16, 0x02);
  MaskPrng a(s1), b(s2);
  int same = 0;
  for (int i = 0; i < 1000; ++i) same += a.next_u32() == b.next_u32();
  EXPECT_LT(same, 5);
}

TEST(ChaCha20, KeystreamWordsMatchesNextU32) {
  // The whole-block word path must be bit-identical to the per-word path,
  // including lengths that are not block multiples and streams that start
  // with a partially consumed block.
  const Bytes key(ChaCha20::kKeySize, 0x3c);
  const Bytes nonce(ChaCha20::kNonceSize, 0x15);
  for (const std::size_t skip : {0UL, 1UL, 7UL, 16UL}) {
    for (const std::size_t n : {0UL, 1UL, 15UL, 16UL, 17UL, 100UL}) {
      ChaCha20 scalar(key, nonce), blocked(key, nonce);
      for (std::size_t i = 0; i < skip; ++i) {
        EXPECT_EQ(scalar.next_u32(), blocked.next_u32());
      }
      std::vector<std::uint32_t> expected(n), actual(n);
      for (auto& w : expected) w = scalar.next_u32();
      blocked.keystream_words(actual);
      EXPECT_EQ(actual, expected) << "skip " << skip << " n " << n;
    }
  }
}

TEST(ChaCha20, MultiStreamMatchesScalarStreams) {
  // The lockstep tile path (8 lanes + scalar remainder) must reproduce each
  // stream's scalar keystream exactly, for stream counts straddling the tile
  // width and lengths straddling block boundaries.
  const Bytes nonce(ChaCha20::kNonceSize, 0x00);
  for (const std::size_t streams : {1UL, 7UL, 8UL, 9UL, 17UL}) {
    for (const std::size_t n : {0UL, 1UL, 15UL, 16UL, 17UL, 100UL}) {
      std::vector<ChaCha20> multi, scalar;
      for (std::size_t s = 0; s < streams; ++s) {
        Bytes key(ChaCha20::kKeySize, static_cast<std::uint8_t>(s + 1));
        multi.emplace_back(key, nonce);
        scalar.emplace_back(key, nonce);
      }
      std::vector<std::vector<std::uint32_t>> out(streams,
                                                  std::vector<std::uint32_t>(n));
      std::vector<ChaCha20*> stream_ptrs(streams);
      std::vector<std::uint32_t*> out_ptrs(streams);
      for (std::size_t s = 0; s < streams; ++s) {
        stream_ptrs[s] = &multi[s];
        out_ptrs[s] = out[s].data();
      }
      ChaCha20::keystream_words_multi(stream_ptrs, out_ptrs, n);
      for (std::size_t s = 0; s < streams; ++s) {
        std::vector<std::uint32_t> expected(n);
        scalar[s].keystream_words(expected);
        EXPECT_EQ(out[s], expected) << "streams " << streams << " n " << n
                                    << " stream " << s;
      }
      // The multi path leaves every stream positioned for more keystream.
      for (std::size_t s = 0; s < streams; ++s) {
        EXPECT_EQ(multi[s].next_u32(), scalar[s].next_u32()) << "stream " << s;
      }
    }
  }
}

// ----------------------------------------------------------------- BigUInt --

TEST(BigUInt, HexRoundTrip) {
  const std::string hex = "deadbeef0123456789abcdef00000000ffffffff";
  EXPECT_EQ(BigUInt::from_hex(hex).to_hex(), hex);
}

TEST(BigUInt, BytesRoundTrip) {
  const Bytes b{0x01, 0x02, 0x03, 0x04, 0x05};
  EXPECT_EQ(BigUInt::from_bytes(b).to_bytes(), b);
}

TEST(BigUInt, ToBytesPadsToWidth) {
  const BigUInt v(0x1234);
  const Bytes b = v.to_bytes(4);
  EXPECT_EQ(to_hex(b), "00001234");
}

TEST(BigUInt, AdditionCarries) {
  const BigUInt a = BigUInt::from_hex("ffffffffffffffff");
  const BigUInt one(1);
  EXPECT_EQ((a + one).to_hex(), "10000000000000000");
}

TEST(BigUInt, SubtractionBorrows) {
  const BigUInt a = BigUInt::from_hex("10000000000000000");
  const BigUInt one(1);
  EXPECT_EQ((a - one).to_hex(), "ffffffffffffffff");
}

TEST(BigUInt, SubtractionUnderflowThrows) {
  EXPECT_THROW(BigUInt(1) - BigUInt(2), std::underflow_error);
}

TEST(BigUInt, MultiplicationKnownProduct) {
  const BigUInt a = BigUInt::from_hex("ffffffffffffffff");
  EXPECT_EQ((a * a).to_hex(), "fffffffffffffffe0000000000000001");
}

TEST(BigUInt, DivmodIdentityProperty) {
  // Property: for random a, b != 0: a == (a/b)*b + (a%b) and a%b < b.
  util::Rng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    Bytes ab(1 + rng.uniform_int(24)), bb(1 + rng.uniform_int(12));
    for (auto& x : ab) x = static_cast<std::uint8_t>(rng.uniform_int(256));
    for (auto& x : bb) x = static_cast<std::uint8_t>(rng.uniform_int(256));
    const BigUInt a = BigUInt::from_bytes(ab);
    BigUInt b = BigUInt::from_bytes(bb);
    if (b.is_zero()) b = BigUInt(1);
    const auto [q, r] = a.divmod(b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
  }
}

TEST(BigUInt, DivisionByZeroThrows) {
  EXPECT_THROW(BigUInt(5).divmod(BigUInt(0)), std::domain_error);
}

TEST(BigUInt, ShiftsRoundTrip) {
  const BigUInt a = BigUInt::from_hex("123456789abcdef0123456789");
  EXPECT_EQ(((a << 67) >> 67), a);
  EXPECT_EQ((a >> 1000).to_hex(), "0");
}

TEST(BigUInt, PowmodFermatLittleTheorem) {
  // a^(p-1) = 1 mod p for prime p and a not divisible by p.
  const BigUInt p(1000003);  // prime
  for (std::uint64_t a : {2ULL, 3ULL, 999999ULL}) {
    EXPECT_EQ(BigUInt(a).powmod(p - BigUInt(1), p), BigUInt(1));
  }
}

TEST(BigUInt, PowmodMatchesSmallIntegers) {
  // Cross-check against native arithmetic for small values.
  util::Rng rng(100);
  for (int iter = 0; iter < 100; ++iter) {
    const std::uint64_t base = rng.uniform_int(1000);
    const std::uint64_t exp = rng.uniform_int(20);
    const std::uint64_t mod = 1 + rng.uniform_int(10000);
    std::uint64_t expected = 1 % mod;
    for (std::uint64_t i = 0; i < exp; ++i) expected = expected * base % mod;
    EXPECT_EQ(BigUInt(base).powmod(BigUInt(exp), BigUInt(mod)),
              BigUInt(expected));
  }
}

TEST(BigUInt, BitLength) {
  EXPECT_EQ(BigUInt(0).bit_length(), 0u);
  EXPECT_EQ(BigUInt(1).bit_length(), 1u);
  EXPECT_EQ(BigUInt(255).bit_length(), 8u);
  EXPECT_EQ(BigUInt::from_hex("10000000000000000").bit_length(), 65u);
}

// ------------------------------------------------------ BigUInt oracles --
//
// The word-level divmod (Knuth Algorithm D) and windowed Montgomery powmod
// are cross-checked against the bit-serial algorithms they replaced, kept
// here as reference implementations built only from the public API.

std::pair<BigUInt, BigUInt> reference_divmod(const BigUInt& a, const BigUInt& d) {
  if (a < d) return {BigUInt(), a};
  // Shift-subtract long division, one quotient bit per step.
  const std::size_t shift = a.bit_length() - d.bit_length();
  BigUInt remainder = a;
  BigUInt quotient;
  BigUInt shifted = d << shift;
  for (std::size_t i = shift + 1; i-- > 0;) {
    if (remainder >= shifted) {
      remainder = remainder - shifted;
      quotient = quotient + (BigUInt(1) << i);
    }
    shifted = shifted >> 1;
  }
  return {quotient, remainder};
}

BigUInt reference_powmod(const BigUInt& base, const BigUInt& exp, const BigUInt& m) {
  // Bit-by-bit left-to-right square-and-multiply.
  const auto mulmod = [&](const BigUInt& x, const BigUInt& y) {
    return reference_divmod(x * y, m).second;
  };
  const BigUInt b = reference_divmod(base, m).second;
  BigUInt result = reference_divmod(BigUInt(1), m).second;
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    result = mulmod(result, result);
    if (exp.bit(i)) result = mulmod(result, b);
  }
  return result;
}

/// Little-endian limbs to a BigUInt.
BigUInt from_limbs(std::initializer_list<std::uint64_t> limbs) {
  BigUInt out;
  std::size_t i = 0;
  for (std::uint64_t limb : limbs) out = out + (BigUInt(limb) << (64 * i++));
  return out;
}

/// `limbs` random limbs; about two in three are drawn from values that
/// stress quotient estimation (0, 1, all-ones, top bit only, ...).
BigUInt structured_operand(util::Rng& rng, std::size_t limbs) {
  static constexpr std::uint64_t kPatterns[] = {
      0, 1, ~0ULL, 0x8000000000000000ULL, 0x7fffffffffffffffULL, ~1ULL};
  BigUInt out;
  for (std::size_t i = 0; i < limbs; ++i) {
    const std::uint64_t limb = rng.uniform_int(3) == 0
                                   ? rng.next()
                                   : kPatterns[rng.uniform_int(std::size(kPatterns))];
    out = out + (BigUInt(limb) << (64 * i));
  }
  return out;
}

void expect_divmod_matches_reference(const BigUInt& a, const BigUInt& d) {
  const auto [q, r] = a.divmod(d);
  const auto [q_ref, r_ref] = reference_divmod(a, d);
  EXPECT_EQ(q, q_ref) << a.to_hex() << " / " << d.to_hex();
  EXPECT_EQ(r, r_ref) << a.to_hex() << " % " << d.to_hex();
}

TEST(BigUIntOracle, DivmodMatchesShiftSubtractOnRandomOperands) {
  util::Rng rng(1301);
  for (int iter = 0; iter < 400; ++iter) {
    const BigUInt a = structured_operand(rng, 1 + rng.uniform_int(48));
    BigUInt d = structured_operand(rng, 1 + rng.uniform_int(24));
    if (d.is_zero()) d = BigUInt(1);
    expect_divmod_matches_reference(a, d);
  }
}

TEST(BigUIntOracle, DivmodCorrectionAndAddBackEdges) {
  const std::uint64_t top = 0x8000000000000000ULL;
  const std::uint64_t ones = ~0ULL;
  // Each of the first three takes Algorithm D's add-back step (the 64-bit
  // analogues of the classic 32-bit divmnu test vectors).
  expect_divmod_matches_reference(from_limbs({3, 0, top}),
                                  from_limbs({1, 0, 0x2000000000000000ULL}));
  expect_divmod_matches_reference(from_limbs({0, 0, top, 0x7fffffffffffffffULL}),
                                  from_limbs({1, 0, top}));
  expect_divmod_matches_reference(from_limbs({0, ~1ULL, 0, top}),
                                  from_limbs({ones, 0, top}));
  // q̂ overestimates that the second-limb test corrects.
  expect_divmod_matches_reference(from_limbs({0, ~1ULL, 0, top}),
                                  from_limbs({ones, top}));
  expect_divmod_matches_reference(from_limbs({ones, ones, ones, ones}),
                                  from_limbs({ones, top}));
  // All-ones dividends over divisors with a lone top bit.
  for (std::size_t n = 1; n <= 6; ++n) {
    const BigUInt all_ones = (BigUInt(1) << (64 * 4 * n)) - BigUInt(1);
    const BigUInt top_only = BigUInt(top) << (64 * (n - 1));
    expect_divmod_matches_reference(all_ones, top_only);
    expect_divmod_matches_reference(all_ones, top_only + BigUInt(1));
    expect_divmod_matches_reference(all_ones, all_ones >> (64 * 3 * n));
  }
  // divisor · 2^(64k) − 1: every quotient limb is the all-ones maximum but
  // the last, and the remainder is divisor − 1 shifted up.
  util::Rng rng(1302);
  for (int iter = 0; iter < 40; ++iter) {
    BigUInt d = structured_operand(rng, 1 + rng.uniform_int(24));
    if (d.is_zero()) d = BigUInt(top);
    const std::size_t k = 1 + rng.uniform_int(24);
    expect_divmod_matches_reference((d << (64 * k)) - BigUInt(1), d);
  }
  // Divisor equal to, one above and one below the dividend.
  const BigUInt a = from_limbs({5, ones, top});
  EXPECT_EQ(a.divmod(a), std::make_pair(BigUInt(1), BigUInt()));
  EXPECT_EQ(a.divmod(a + BigUInt(1)), std::make_pair(BigUInt(), a));
  EXPECT_EQ(a.divmod(a - BigUInt(1)), std::make_pair(BigUInt(1), BigUInt(1)));
}

TEST(BigUIntOracle, PowmodMatchesSquareAndMultiply) {
  util::Rng rng(1303);
  for (int iter = 0; iter < 60; ++iter) {
    const std::size_t limbs = 1 + rng.uniform_int(5);
    BigUInt m = structured_operand(rng, limbs) + BigUInt(2);
    // Alternate odd (Montgomery) and even (mulmod) moduli.
    if (m.bit(0) != (iter % 2 == 0)) m = m + BigUInt(1);
    const BigUInt base = structured_operand(rng, 1 + rng.uniform_int(2 * limbs));
    const BigUInt exp = structured_operand(rng, 1 + rng.uniform_int(limbs));
    EXPECT_EQ(base.powmod(exp, m), reference_powmod(base, exp, m))
        << base.to_hex() << " ^ " << exp.to_hex() << " mod " << m.to_hex();
  }
}

TEST(BigUIntOracle, PowmodEdgeOperands) {
  const BigUInt odd = from_limbs({0x1234567890abcdefULL, 0xfedcba0987654321ULL});
  const BigUInt even = odd + BigUInt(1);
  const BigUInt exp = from_limbs({0xdeadbeefcafef00dULL, 3});
  for (const BigUInt& m : {odd, even}) {
    // m = 1 makes everything zero, even x^0.
    EXPECT_EQ(odd.powmod(exp, BigUInt(1)), BigUInt());
    EXPECT_EQ(odd.powmod(BigUInt(), BigUInt(1)), BigUInt());
    // exp = 0 gives 1, including 0^0.
    EXPECT_EQ(odd.powmod(BigUInt(), m), BigUInt(1));
    EXPECT_EQ(BigUInt().powmod(BigUInt(), m), BigUInt(1));
    // base = 0 and base a multiple of m give 0.
    EXPECT_EQ(BigUInt().powmod(exp, m), BigUInt());
    EXPECT_EQ((m * BigUInt(7)).powmod(exp, m), BigUInt());
    // base >= m reduces first.
    const BigUInt big_base = m * m + BigUInt(12345);
    EXPECT_EQ(big_base.powmod(exp, m), reference_powmod(big_base, exp, m));
    EXPECT_EQ((m - BigUInt(1)).powmod(exp, m), reference_powmod(m - BigUInt(1), exp, m));
    // Every exponent length modulo the window width.
    for (std::uint64_t e = 1; e <= 17; ++e) {
      EXPECT_EQ(BigUInt(3).powmod(BigUInt(e), m), reference_powmod(BigUInt(3), BigUInt(e), m));
    }
  }
  EXPECT_THROW(BigUInt(2).powmod(BigUInt(3), BigUInt()), std::domain_error);
}

TEST(BigUIntOracle, PowmodFixedVectorsSimulation256) {
  const BigUInt& p = DhParams::simulation256().p;
  const BigUInt e = BigUInt::from_hex(
      "78e74321f6e4bc9fc794693b714234b1de0614889684388f843605f075b900c1");
  EXPECT_EQ(BigUInt(5).powmod(e, p).to_hex(),
            "5f5597af02e05e227010e65584b9ccb0dd7cbc958c729d08fd23f9520c9bd1fc");
  // A 512-bit base, reduced before exponentiation.
  const BigUInt base = BigUInt::from_hex(
      "aa2ff4fe622a1734e0390a07f9467ad70b4a487cc13c006babec708f97396d7c"
      "aa2ff4fe622a1734e0390a07f9467ad70b4a487cc13c006babec708f97396d7c");
  EXPECT_EQ(base.powmod(e, p).to_hex(),
            "e2586bfe091a343e7634390337cf9fc8c0374790fdcdef8b71ac06cce861f434");
}

TEST(BigUIntOracle, PowmodFixedVectorsRfc3526) {
  const BigUInt& p = DhParams::rfc3526_1536().p;
  const BigUInt e = BigUInt::from_hex(
      "78e74321f6e4bc9fc794693b714234b1de0614889684388f843605f075b900c1");
  EXPECT_EQ(BigUInt(2).powmod(e, p).to_hex(),
            "a3cf56690a9c6c7f9d38a63a2d08047f1197e2afc43eb2fac8c60a7797fda052"
            "a022786c14d0d64e7675b222eb809e067970fc648fec56b6864b807f42e202d4"
            "4bed8371ad1940241be256e3d3226247f9258edcaf738f1c31913020ede14796"
            "19ead774a441ed277af0d1c52fd75dc35243d4c61bc10231dbee1e92224e6d49"
            "10a734924ace8e7c4ecdd7c59c099d4d7df8ea11576163abf4fcf55d726adfb6"
            "c4e9c9d437a98bead0969f56ac33efb3afe7db6f9f134809d7a96674a2ab853e");
  // A full-width exponent with a closed form: 2^(p-2) = 2^-1 = (p+1)/2.
  EXPECT_EQ(BigUInt(2).powmod(p - BigUInt(2), p), (p + BigUInt(1)) >> 1);
}

TEST(BigUIntOracle, PowmodFixedVectorsShamirPrime) {
  const BigUInt p = (BigUInt(1) << 130) - BigUInt(5);
  EXPECT_EQ(BigUInt(123456789).powmod(p - BigUInt(2), p).to_hex(),
            "3443f3d6b14b1a4829bed4bc05b539f88");
  EXPECT_EQ(BigUInt::from_hex("10534ce7641c39056e0c398ec8fe913f")
                .powmod(p - BigUInt(2), p)
                .to_hex(),
            "c425772641f20ffff6f26669bb1c09c8");
}

TEST(BigUIntOracle, DhHandshakeMatchesBitSerialImplementation) {
  // Keys and shared secrets recorded with the bit-serial powmod: the
  // word-level arithmetic must reproduce them exactly.
  const DhParams& params = DhParams::simulation256();
  const Bytes seed_a(32, 0xaa), seed_b(32, 0xbb);
  DhRandom ra(seed_a), rb(seed_b);
  const DhKeyPair alice = dh_generate(params, ra);
  const DhKeyPair bob = dh_generate(params, rb);
  EXPECT_EQ(alice.public_key.to_hex(),
            "55dba5d0e111cc6d01ca015eeebfc83c70d3b067c9e734eff3f3e7fb1ebca491");
  EXPECT_EQ(dh_shared_element(params, alice.private_key, bob.public_key).to_hex(),
            "6d1605e529002349247a3d6928f16626bfbcaf92bb703840c7a36a430b8931f6");
}

// --------------------------------------------------------------------- DH --

TEST(Dh, SharedSecretAgreement) {
  const DhParams& params = DhParams::simulation256();
  const Bytes seed_a(32, 0xaa), seed_b(32, 0xbb);
  DhRandom ra(seed_a), rb(seed_b);
  const DhKeyPair alice = dh_generate(params, ra);
  const DhKeyPair bob = dh_generate(params, rb);
  const BigUInt s1 = dh_shared_element(params, alice.private_key, bob.public_key);
  const BigUInt s2 = dh_shared_element(params, bob.private_key, alice.public_key);
  EXPECT_EQ(s1, s2);
  EXPECT_FALSE(s1.is_zero());
}

TEST(Dh, DistinctPartiesDistinctSecrets) {
  const DhParams& params = DhParams::simulation256();
  const Bytes seed(32, 0x01);
  DhRandom random(seed);
  const DhKeyPair a = dh_generate(params, random);
  const DhKeyPair b = dh_generate(params, random);
  const DhKeyPair c = dh_generate(params, random);
  const BigUInt ab = dh_shared_element(params, a.private_key, b.public_key);
  const BigUInt ac = dh_shared_element(params, a.private_key, c.public_key);
  EXPECT_NE(ab, ac);
}

TEST(Dh, Rfc3526GroupAgreement) {
  const DhParams& params = DhParams::rfc3526_1536();
  const Bytes seed_a(32, 0x10), seed_b(32, 0x20);
  DhRandom ra(seed_a), rb(seed_b);
  const DhKeyPair alice = dh_generate(params, ra);
  const DhKeyPair bob = dh_generate(params, rb);
  EXPECT_EQ(dh_shared_element(params, alice.private_key, bob.public_key),
            dh_shared_element(params, bob.private_key, alice.public_key));
}

TEST(Dh, RejectsDegeneratePublicKeys) {
  const DhParams& params = DhParams::simulation256();
  const Bytes seed(32, 0x33);
  DhRandom random(seed);
  const DhKeyPair kp = dh_generate(params, random);
  EXPECT_THROW(dh_shared_element(params, kp.private_key, BigUInt(0)),
               std::invalid_argument);
  EXPECT_THROW(dh_shared_element(params, kp.private_key, BigUInt(1)),
               std::invalid_argument);
  EXPECT_THROW(dh_shared_element(params, kp.private_key, params.p),
               std::invalid_argument);
  EXPECT_THROW(dh_shared_element(params, kp.private_key, params.p - BigUInt(1)),
               std::invalid_argument);
}

TEST(Dh, DerivedKeysDependOnLabel) {
  const DhParams& params = DhParams::simulation256();
  const BigUInt shared(123456789);
  const Digest k1 = dh_derive_key(params, shared, "label-one");
  const Digest k2 = dh_derive_key(params, shared, "label-two");
  EXPECT_NE(to_hex(k1), to_hex(k2));
}

// ------------------------------------------------------------- SealedBox --

TEST(AuthEnc, SealOpenRoundTrip) {
  Digest key{};
  key.fill(0x5a);
  const Bytes plaintext = from_string("sixteen byte key");
  const SealedBox box = seal(key, 7, plaintext);
  const auto opened = open(key, 7, box);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plaintext);
}

TEST(AuthEnc, WrongSequenceRejected) {
  Digest key{};
  key.fill(0x5a);
  const SealedBox box = seal(key, 7, from_string("seed"));
  EXPECT_FALSE(open(key, 8, box).has_value());
}

TEST(AuthEnc, WrongKeyRejected) {
  Digest key{}, other{};
  key.fill(0x01);
  other.fill(0x02);
  const SealedBox box = seal(key, 1, from_string("seed"));
  EXPECT_FALSE(open(other, 1, box).has_value());
}

TEST(AuthEnc, TamperedCiphertextRejected) {
  Digest key{};
  key.fill(0x5a);
  SealedBox box = seal(key, 1, from_string("some secret seed"));
  for (std::size_t i = 0; i < box.ciphertext.size(); i += 7) {
    SealedBox tampered = box;
    tampered.ciphertext[i] ^= 0x01;
    EXPECT_FALSE(open(key, 1, tampered).has_value()) << "byte " << i;
  }
}

TEST(AuthEnc, AssociatedDataIsAuthenticated) {
  Digest key{};
  key.fill(0x77);
  const Bytes ad = from_string("params-hash");
  const SealedBox box = seal(key, 1, from_string("seed"), ad);
  EXPECT_TRUE(open(key, 1, box, ad).has_value());
  EXPECT_FALSE(open(key, 1, box, from_string("other")).has_value());
}

TEST(AuthEnc, TruncatedCiphertextRejected) {
  Digest key{};
  key.fill(0x5a);
  SealedBox box = seal(key, 1, from_string("seed"));
  box.ciphertext.resize(10);
  EXPECT_FALSE(open(key, 1, box).has_value());
}

}  // namespace
}  // namespace papaya::crypto

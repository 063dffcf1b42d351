#include "crypto/bigint.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

// Word-level arithmetic over 64-bit limbs.
//
//   - divmod is Knuth's Algorithm D (TAOCP vol. 2, §4.3.1): normalise the
//     divisor so its top limb has the high bit set, estimate each quotient
//     limb from the top two dividend limbs with a 128-by-64 division, refine
//     the estimate against the divisor's second limb, multiply-subtract, and
//     add back in the rare case the estimate was still one too large.  A
//     one-limb divisor takes a short-division loop instead.
//   - powmod is a fixed 4-bit-window exponentiation over fixed-width limb
//     scratch.  An odd modulus (every DH group and the Shamir prime)
//     multiplies in Montgomery form with the CIOS interleaving (Koç, Acar &
//     Kaliski 1996); an even modulus multiplies with mulmod.  Every window
//     costs four squarings and one table multiply, so the operation count
//     depends only on the exponent's bit length, not its bits.  The final
//     Montgomery subtraction and the table index are still data-dependent:
//     this is simulation-grade arithmetic, not hardened constant-time code.

namespace papaya::crypto {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

constexpr unsigned kWindowBits = 4;
constexpr std::size_t kWindowSize = std::size_t{1} << kWindowBits;

int hex_val(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("BigUInt::from_hex: invalid hex digit");
}

/// The `kWindowBits`-bit exponent window whose lowest bit is `bit`.
unsigned window_at(const BigUInt& exp, std::size_t bit) {
  unsigned w = 0;
  for (unsigned k = kWindowBits; k-- > 0;) {
    w = (w << 1) | static_cast<unsigned>(exp.bit(bit + k));
  }
  return w;
}

/// -m0^-1 mod 2^64 for odd m0, by Newton iteration: m0 is its own inverse
/// mod 8 (3 bits), and each step doubles the correct bits (3→6→…→96).
u64 neg_inverse_u64(u64 m0) {
  u64 inv = m0;
  for (int i = 0; i < 5; ++i) inv *= 2 - m0 * inv;
  return ~inv + 1;
}

/// Montgomery product out = a·b·R^-1 mod m, R = 2^(64n), for a, b < m and m
/// odd (CIOS).  `t` is n+2 limbs of scratch; `out` may alias `a` or `b`.
void mont_mul(u64* out, const u64* a, const u64* b, const u64* m, std::size_t n,
              u64 m_inv, u64* t) {
  std::fill(t, t + n + 2, 0);
  for (std::size_t i = 0; i < n; ++i) {
    // t += a · b[i]
    u64 carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const u128 cur = static_cast<u128>(a[j]) * b[i] + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 top = static_cast<u128>(t[n]) + carry;
    t[n] = static_cast<u64>(top);
    t[n + 1] = static_cast<u64>(top >> 64);

    // t = (t + q·m) / 2^64 with q chosen so the low limb cancels.
    const u64 q = t[0] * m_inv;
    u128 cur = static_cast<u128>(q) * m[0] + t[0];
    carry = static_cast<u64>(cur >> 64);
    for (std::size_t j = 1; j < n; ++j) {
      cur = static_cast<u128>(q) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    top = static_cast<u128>(t[n]) + carry;
    t[n - 1] = static_cast<u64>(top);
    t[n] = t[n + 1] + static_cast<u64>(top >> 64);
  }

  // t < 2m: subtract m once if t >= m.
  u64 borrow = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const u64 d = t[j] - m[j];
    const u64 b1 = t[j] < m[j];
    out[j] = d - borrow;
    borrow = b1 | (d < borrow);
  }
  if (t[n] == 0 && borrow != 0) std::copy(t, t + n, out);
}

}  // namespace

BigUInt::BigUInt(std::uint64_t v) {
  if (v != 0) limbs_.push_back(v);
}

void BigUInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUInt BigUInt::from_hex(const std::string& hex) {
  BigUInt out;
  for (char c : hex) {
    if (c == ' ' || c == '\n' || c == '\t') continue;
    out = (out << 4) + BigUInt(static_cast<std::uint64_t>(hex_val(c)));
  }
  return out;
}

BigUInt BigUInt::from_bytes(std::span<const std::uint8_t> bytes) {
  BigUInt out;
  const std::size_t nlimbs = (bytes.size() + 7) / 8;
  out.limbs_.assign(nlimbs, 0);
  // bytes are big-endian; limb 0 is least significant.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const std::size_t byte_from_lsb = bytes.size() - 1 - i;
    out.limbs_[byte_from_lsb / 8] |= static_cast<std::uint64_t>(bytes[i])
                                     << (8 * (byte_from_lsb % 8));
  }
  out.trim();
  return out;
}

util::Bytes BigUInt::to_bytes(std::size_t width) const {
  const std::size_t min_width = (bit_length() + 7) / 8;
  const std::size_t w = width == 0 ? std::max<std::size_t>(min_width, 1) : width;
  util::Bytes out(w, 0);
  for (std::size_t i = 0; i < w; ++i) {
    const std::size_t byte_from_lsb = i;
    const std::size_t limb = byte_from_lsb / 8;
    if (limb >= limbs_.size()) break;
    out[w - 1 - i] =
        static_cast<std::uint8_t>(limbs_[limb] >> (8 * (byte_from_lsb % 8)));
  }
  return out;
}

std::string BigUInt::to_hex() const {
  if (is_zero()) return "0";
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (auto it = limbs_.rbegin(); it != limbs_.rend(); ++it) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      out.push_back(digits[(*it >> shift) & 0xf]);
    }
  }
  const auto first = out.find_first_not_of('0');
  return out.substr(first);
}

bool BigUInt::is_zero() const { return limbs_.empty(); }

std::size_t BigUInt::bit_length() const {
  if (limbs_.empty()) return 0;
  const std::uint64_t top = limbs_.back();
  return (limbs_.size() - 1) * 64 +
         (64 - static_cast<std::size_t>(__builtin_clzll(top)));
}

bool BigUInt::bit(std::size_t i) const {
  const std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

int BigUInt::compare(const BigUInt& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] < other.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigUInt BigUInt::operator+(const BigUInt& other) const {
  BigUInt out;
  const std::size_t n = std::max(limbs_.size(), other.limbs_.size());
  out.limbs_.assign(n + 1, 0);
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    unsigned __int128 s = carry;
    if (i < limbs_.size()) s += limbs_[i];
    if (i < other.limbs_.size()) s += other.limbs_[i];
    out.limbs_[i] = static_cast<std::uint64_t>(s);
    carry = s >> 64;
  }
  out.limbs_[n] = static_cast<std::uint64_t>(carry);
  out.trim();
  return out;
}

BigUInt BigUInt::operator-(const BigUInt& other) const {
  if (*this < other) {
    throw std::underflow_error("BigUInt: subtraction underflow");
  }
  BigUInt out;
  out.limbs_.assign(limbs_.size(), 0);
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t rhs = i < other.limbs_.size() ? other.limbs_[i] : 0;
    const std::uint64_t lhs = limbs_[i];
    const std::uint64_t d1 = lhs - rhs;
    const std::uint64_t b1 = lhs < rhs;
    const std::uint64_t d2 = d1 - borrow;
    const std::uint64_t b2 = d1 < borrow;
    out.limbs_[i] = d2;
    borrow = b1 | b2;
  }
  out.trim();
  return out;
}

BigUInt BigUInt::operator*(const BigUInt& other) const {
  if (is_zero() || other.is_zero()) return BigUInt();
  BigUInt out;
  out.limbs_.assign(limbs_.size() + other.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    unsigned __int128 carry = 0;
    for (std::size_t j = 0; j < other.limbs_.size(); ++j) {
      unsigned __int128 cur =
          static_cast<unsigned __int128>(limbs_[i]) * other.limbs_[j] +
          out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    out.limbs_[i + other.limbs_.size()] += static_cast<std::uint64_t>(carry);
  }
  out.trim();
  return out;
}

BigUInt BigUInt::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) {
    BigUInt out = *this;
    return out;
  }
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  BigUInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift != 0) {
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
  }
  out.trim();
  return out;
}

BigUInt BigUInt::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  if (limb_shift >= limbs_.size()) return BigUInt();
  BigUInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  out.trim();
  return out;
}

std::pair<BigUInt, BigUInt> BigUInt::divmod(const BigUInt& divisor) const {
  if (divisor.is_zero()) {
    throw std::domain_error("BigUInt: division by zero");
  }
  if (*this < divisor) return {BigUInt(), *this};

  const std::size_t n = divisor.limbs_.size();
  const std::size_t m = limbs_.size() - n;  // quotient has m + 1 limbs
  BigUInt quotient;
  quotient.limbs_.assign(m + 1, 0);

  if (n == 1) {
    // Short division: one 128-by-64 step per dividend limb.
    const u64 d = divisor.limbs_[0];
    u64 rem = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
      const u128 cur = (static_cast<u128>(rem) << 64) | limbs_[i];
      quotient.limbs_[i] = static_cast<u64>(cur / d);
      rem = static_cast<u64>(cur % d);
    }
    quotient.trim();
    return {quotient, BigUInt(rem)};
  }

  // D1: normalise so the divisor's top limb has its high bit set; the
  // dividend gains one limb to hold the bits shifted out of its top.
  const unsigned s = static_cast<unsigned>(__builtin_clzll(divisor.limbs_.back()));
  std::vector<u64> v(n);
  std::vector<u64> u(m + n + 1);
  for (std::size_t i = n; i-- > 0;) {
    v[i] = divisor.limbs_[i] << s;
    if (s != 0 && i > 0) v[i] |= divisor.limbs_[i - 1] >> (64 - s);
  }
  u[m + n] = s == 0 ? 0 : limbs_[m + n - 1] >> (64 - s);
  for (std::size_t i = m + n; i-- > 0;) {
    u[i] = limbs_[i] << s;
    if (s != 0 && i > 0) u[i] |= limbs_[i - 1] >> (64 - s);
  }

  const u64 v_top = v[n - 1];
  const u64 v_next = v[n - 2];
  for (std::size_t j = m + 1; j-- > 0;) {
    // D3: estimate q̂ from the top two limbs, then refine it with the next
    // limb so it is at most one too large.
    const u128 num = (static_cast<u128>(u[j + n]) << 64) | u[j + n - 1];
    u128 qhat = num / v_top;
    u128 rhat = num % v_top;
    while (qhat >> 64 != 0 ||
           qhat * v_next > ((rhat << 64) | u[j + n - 2])) {
      --qhat;
      rhat += v_top;
      if (rhat >> 64 != 0) break;
    }

    // D4: u[j .. j+n] -= q̂ · v.
    const u64 q = static_cast<u64>(qhat);
    u64 mul_carry = 0;
    u64 borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u128 p = static_cast<u128>(q) * v[i] + mul_carry;
      mul_carry = static_cast<u64>(p >> 64);
      const u64 lo = static_cast<u64>(p);
      const u64 d = u[i + j] - lo;
      const u64 b1 = u[i + j] < lo;
      u[i + j] = d - borrow;
      borrow = b1 | (d < borrow);
    }
    const u64 d = u[j + n] - mul_carry;
    const u64 b1 = u[j + n] < mul_carry;
    u[j + n] = d - borrow;
    borrow = b1 | (d < borrow);

    // D5/D6: q̂ was one too large (probability ~2/2^64): add v back once.
    quotient.limbs_[j] = q;
    if (borrow != 0) {
      --quotient.limbs_[j];
      u64 carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const u128 sum = static_cast<u128>(u[i + j]) + v[i] + carry;
        u[i + j] = static_cast<u64>(sum);
        carry = static_cast<u64>(sum >> 64);
      }
      u[j + n] += carry;  // the carry out cancels the borrow
    }
  }

  // D8: the remainder is u[0 .. n) shifted back down by s.
  BigUInt remainder;
  remainder.limbs_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    remainder.limbs_[i] = u[i] >> s;
    if (s != 0) remainder.limbs_[i] |= u[i + 1] << (64 - s);
  }
  quotient.trim();
  remainder.trim();
  return {quotient, remainder};
}

BigUInt BigUInt::mulmod(const BigUInt& other, const BigUInt& m) const {
  return ((*this) * other) % m;
}

BigUInt BigUInt::powmod(const BigUInt& exp, const BigUInt& m) const {
  if (m.is_zero()) throw std::domain_error("BigUInt: powmod modulus zero");
  if (m == BigUInt(1)) return BigUInt();
  const std::size_t nbits = exp.bit_length();
  if (nbits == 0) return BigUInt(1);
  const BigUInt base = *this % m;

  // Windows from the most significant; the first one seeds the accumulator.
  const std::size_t windows = (nbits + kWindowBits - 1) / kWindowBits;
  const std::size_t top_bit = (windows - 1) * kWindowBits;

  if ((m.limbs_[0] & 1) == 0) {
    // Even modulus: the same window loop, multiplying with mulmod.
    std::array<BigUInt, kWindowSize> table;
    table[0] = BigUInt(1);
    for (std::size_t i = 1; i < kWindowSize; ++i) table[i] = table[i - 1].mulmod(base, m);
    BigUInt acc = table[window_at(exp, top_bit)];
    for (std::size_t w = windows - 1; w-- > 0;) {
      for (unsigned k = 0; k < kWindowBits; ++k) acc = acc.mulmod(acc, m);
      acc = acc.mulmod(table[window_at(exp, w * kWindowBits)], m);
    }
    return acc;
  }

  // Odd modulus: Montgomery form with R = 2^(64n).  Every operand is held
  // zero-padded to exactly n limbs.
  const std::size_t n = m.limbs_.size();
  const u64* mod = m.limbs_.data();
  const u64 m_inv = neg_inverse_u64(mod[0]);
  const auto padded = [n](const BigUInt& x) {
    std::vector<u64> out(n, 0);
    std::copy(x.limbs_.begin(), x.limbs_.end(), out.begin());
    return out;
  };
  const std::vector<u64> r2 = padded((BigUInt(1) << (128 * n)) % m);
  std::vector<u64> one(n, 0);
  one[0] = 1;
  std::vector<u64> scratch(n + 2);

  // table[i] = base^i · R mod m.
  std::vector<u64> table(kWindowSize * n);
  mont_mul(&table[0], r2.data(), one.data(), mod, n, m_inv, scratch.data());
  const std::vector<u64> base_limbs = padded(base);
  mont_mul(&table[n], base_limbs.data(), r2.data(), mod, n, m_inv, scratch.data());
  for (std::size_t i = 2; i < kWindowSize; ++i) {
    mont_mul(&table[i * n], &table[(i - 1) * n], &table[n], mod, n, m_inv,
             scratch.data());
  }

  const std::size_t first = window_at(exp, top_bit);
  std::vector<u64> acc(table.begin() + static_cast<std::ptrdiff_t>(first * n),
                       table.begin() + static_cast<std::ptrdiff_t>((first + 1) * n));
  for (std::size_t w = windows - 1; w-- > 0;) {
    for (unsigned k = 0; k < kWindowBits; ++k) {
      mont_mul(acc.data(), acc.data(), acc.data(), mod, n, m_inv, scratch.data());
    }
    const std::size_t idx = window_at(exp, w * kWindowBits);
    mont_mul(acc.data(), acc.data(), &table[idx * n], mod, n, m_inv, scratch.data());
  }
  // Leave Montgomery form: acc · 1 · R^-1.
  mont_mul(acc.data(), acc.data(), one.data(), mod, n, m_inv, scratch.data());

  BigUInt out;
  out.limbs_ = std::move(acc);
  out.trim();
  return out;
}

}  // namespace papaya::crypto

#include "secagg/otp.hpp"

#include <algorithm>

#include "crypto/chacha20.hpp"

namespace papaya::secagg {

GroupVec expand_mask(const Seed& seed, std::size_t length) {
  crypto::MaskPrng prng(seed);
  return prng.words(length);
}

void accumulate_masks(std::span<const Seed> seeds, GroupVec& sum) {
  if (seeds.empty()) return;
  std::vector<crypto::MaskPrng> prngs(seeds.begin(), seeds.end());
  std::vector<crypto::MaskPrng*> ptrs(prngs.size());
  for (std::size_t i = 0; i < prngs.size(); ++i) ptrs[i] = &prngs[i];

  // Scratch tile: one chunk of keystream per seed, sized so the whole tile
  // plus the matching `sum` block fits comfortably in cache.  Chunks are a
  // multiple of the 16-word ChaCha20 block so every stream stays
  // block-aligned across chunks (the lockstep fast path applies to all but
  // the final partial chunk).
  constexpr std::size_t kChunkWords = 2048;  // 8 KB per stream
  std::vector<std::uint32_t> scratch(seeds.size() * kChunkWords);
  std::vector<std::uint32_t*> outs(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    outs[i] = scratch.data() + i * kChunkWords;
  }

  for (std::size_t base = 0; base < sum.size(); base += kChunkWords) {
    const std::size_t len = std::min(kChunkWords, sum.size() - base);
    crypto::MaskPrng::fill_words_multi(ptrs, outs, len);
    for (std::size_t s = 0; s < seeds.size(); ++s) {
      const std::uint32_t* row = outs[s];
      for (std::size_t i = 0; i < len; ++i) sum[base + i] += row[i];
    }
  }
}

GroupVec mask(std::span<const std::uint32_t> plaintext, const Seed& seed) {
  GroupVec out(plaintext.begin(), plaintext.end());
  crypto::MaskPrng prng(seed);
  for (auto& e : out) e += prng.next_u32();
  return out;
}

GroupVec unmask(std::span<const std::uint32_t> aggregate,
                std::span<const std::uint32_t> mask_sum) {
  return sub(aggregate, mask_sum);
}

}  // namespace papaya::secagg

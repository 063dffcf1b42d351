#include "secagg/secagg_server.hpp"

#include <stdexcept>

namespace papaya::secagg {

SecureAggregationSession::SecureAggregationSession(TrustedSecureAggregator& tsa,
                                                   std::size_t vector_length,
                                                   std::size_t aggregation_goal)
    : tsa_(tsa), masked_sum_(vector_length, 0), goal_(aggregation_goal) {
  if (aggregation_goal == 0) {
    throw std::invalid_argument("SecureAggregationSession: goal must be > 0");
  }
}

std::vector<TsaAccept> SecureAggregationSession::accept(
    std::span<const ClientContribution> batch) {
  for (const ClientContribution& c : batch) {
    if (c.masked_update.size() != masked_sum_.size()) {
      throw std::invalid_argument("SecureAggregationSession: wrong update size");
    }
  }
  if (batch.empty()) return {};

  std::vector<TrustedSecureAggregator::ContributionRef> refs;
  refs.reserve(batch.size());
  for (const ClientContribution& c : batch) {
    refs.push_back({c.message_index, c.completing_message, &c.sealed_seed,
                    /*sequence=*/c.message_index});
  }
  const std::vector<TsaAccept> verdicts = tsa_.process_contributions(refs);

  // A rejected contribution is simply absent from `rows`.
  std::vector<const std::uint32_t*> rows;
  rows.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (verdicts[i] == TsaAccept::kAccepted) {
      rows.push_back(batch[i].masked_update.data());
    }
  }
  add_rows_in_place(masked_sum_, rows);
  accepted_ += rows.size();
  return verdicts;
}

std::optional<GroupVec> SecureAggregationSession::finalize() {
  const auto mask_sum = tsa_.request_unmask();
  if (!mask_sum) return std::nullopt;
  return unmask(masked_sum_, *mask_sum);
}

std::optional<std::vector<float>> SecureAggregationSession::finalize_decoded(
    const FixedPointParams& fp) {
  const auto sum = finalize();
  if (!sum) return std::nullopt;
  return decode(*sum, fp);
}

NaiveTeeAggregator::NaiveTeeAggregator(std::size_t vector_length,
                                       std::size_t threshold)
    : sum_(vector_length, 0), threshold_(threshold) {}

void NaiveTeeAggregator::submit_update(
    std::span<const std::uint32_t> encrypted_update) {
  if (encrypted_update.size() != sum_.size()) {
    throw std::invalid_argument("NaiveTeeAggregator: wrong update size");
  }
  // The whole ciphertext crosses the boundary: that is the O(K*m) term.
  boundary_.record_call(encrypted_update.size() * sizeof(std::uint32_t), 1);
  add_in_place(sum_, encrypted_update);
  ++count_;
}

std::optional<GroupVec> NaiveTeeAggregator::release() {
  // A refusal exports nothing (0-byte status); the aggregate's bytes cross
  // the boundary exactly once, on the first successful release.
  const bool first_release = count_ >= threshold_ && !released_;
  boundary_.record_call(
      0, first_release ? sum_.size() * sizeof(std::uint32_t) : 0);
  if (count_ < threshold_) return std::nullopt;
  released_ = true;
  return sum_;
}

}  // namespace papaya::secagg

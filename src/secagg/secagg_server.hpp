#pragma once
// Untrusted-server side of Asynchronous SecAgg (Fig. 16 steps 5, 7, 8) and
// the naive TEE-aggregation baseline it is compared against in Fig. 6.
//
// The server incrementally aggregates *masked* updates (it never sees a
// plaintext update), forwards each client's sealed seed to the TSA, and once
// the aggregation goal is reached asks the TSA for the unmasking vector and
// subtracts it.

#include <optional>
#include <span>
#include <vector>

#include "secagg/fixed_point.hpp"
#include "secagg/secagg_client.hpp"
#include "secagg/tsa.hpp"

namespace papaya::secagg {

/// One secure-aggregation session on the untrusted server, bound to a TSA
/// instance.  Incremental: contributions arrive whenever clients finish,
/// with no inter-client coordination, and are handed over in batches of
/// whatever size the serving layer chooses (a batch of one is the
/// per-update case).
class SecureAggregationSession {
 public:
  SecureAggregationSession(TrustedSecureAggregator& tsa,
                           std::size_t vector_length,
                           std::size_t aggregation_goal);

  /// Step 5: forward the batch's TSA-destined material in one boundary
  /// crossing and fold every accepted masked update into the running sum
  /// with one blocked reduction.  verdicts[i] is the TSA's verdict on
  /// batch[i] (duplicate indices within a batch resolve in batch order); a
  /// non-accepted contribution's masked update is discarded too (an update
  /// the TSA cannot unmask would poison the aggregate), and it discards only
  /// itself.  An empty batch is a no-op that crosses nothing.  Throws if any
  /// contribution has the wrong vector length (checked up front, before
  /// anything is processed).
  std::vector<TsaAccept> accept(std::span<const ClientContribution> batch);

  std::size_t accepted_count() const { return accepted_; }
  bool goal_reached() const { return accepted_ >= goal_; }

  /// The running masked sum (exposed so tests can check the fold against
  /// the accepted clients' masked updates).
  const GroupVec& masked_sum() const { return masked_sum_; }

  /// Steps 7–8: request the unmasking vector and recover the plaintext sum
  /// of group elements.  Returns nullopt if the TSA refuses (threshold not
  /// met or already released).
  std::optional<GroupVec> finalize();

  /// Convenience: finalize and decode to floats.
  std::optional<std::vector<float>> finalize_decoded(const FixedPointParams& fp);

 private:
  TrustedSecureAggregator& tsa_;
  GroupVec masked_sum_;
  std::size_t goal_;
  std::size_t accepted_ = 0;
};

/// Baseline for Fig. 6: naive TEE aggregation.  Every client's *entire
/// encrypted update* crosses the boundary into the enclave, which decrypts
/// and aggregates inside — O(K*m) boundary traffic.  The enclave mechanics
/// are simulated just enough to meter the traffic honestly.
class NaiveTeeAggregator {
 public:
  NaiveTeeAggregator(std::size_t vector_length, std::size_t threshold);

  /// Push one full (encrypted) update across the boundary.
  void submit_update(std::span<const std::uint32_t> encrypted_update);

  /// Pull the aggregate back out (only when >= threshold updates arrived).
  /// Metering matches how Fig. 6 counts boundary traffic: a below-threshold
  /// refusal moves nothing (a 0-byte status call), and the aggregate's bytes
  /// are charged exactly once — repeated calls after a release re-serve the
  /// already-exported sum without re-crossing it.
  std::optional<GroupVec> release();

  const BoundaryMeter& boundary() const { return boundary_; }

 private:
  GroupVec sum_;
  std::size_t threshold_;
  std::size_t count_ = 0;
  bool released_ = false;
  BoundaryMeter boundary_;
};

}  // namespace papaya::secagg

#include "fl/sharded_agg.hpp"

#include <algorithm>
#include <stdexcept>

namespace papaya::fl {

ShardedAggregator::ShardedAggregator(const Config& config)
    : model_size_(config.model_size),
      ring_(config.num_shards, config.vnodes_per_shard) {
  if (config.model_size == 0) {
    throw std::invalid_argument("ShardedAggregator: model_size must be > 0");
  }
  shards_.reserve(ring_.num_shards());
  for (std::size_t s = 0; s < ring_.num_shards(); ++s) {
    shards_.push_back(std::make_unique<ParallelAggregator>(
        model_size_, config.threads_per_shard, config.clip_norm,
        config.drain_batch));
  }
}

AggStats ShardedAggregator::stats_snapshot() const {
  AggStats total;
  for (const auto& shard : shards_) {
    const AggStats s = shard->stats_snapshot();
    total.enqueued += s.enqueued;
    total.enqueued_bytes += s.enqueued_bytes;
    total.folded += s.folded;
    total.dropped += s.dropped;
    total.max_queue_depth = std::max(total.max_queue_depth, s.max_queue_depth);
    total.reduces += s.reduces;
  }
  return total;
}

void ShardedAggregator::enqueue(std::uint64_t stream_key,
                                util::Bytes serialized_update, double weight) {
  shards_[ring_.shard_for(stream_key)]->enqueue(std::move(serialized_update),
                                                weight);
}

void ShardedAggregator::drain() {
  for (auto& shard : shards_) shard->drain();
}

ParallelAggregator::Reduced ShardedAggregator::reduce_and_reset() {
  ParallelAggregator::Reduced out;
  out.mean_delta.assign(model_size_, 0.0f);
  for (auto& shard : shards_) {
    // Raw weighted sums, so the mean is formed exactly once below — summing
    // already-normalized shard means would weight shards, not updates.
    ParallelAggregator::Reduced part = shard->reduce_and_reset_sums();
    for (std::size_t i = 0; i < model_size_; ++i) {
      out.mean_delta[i] += part.mean_delta[i];
    }
    out.weight_sum += part.weight_sum;
    out.count += part.count;
  }
  if (out.weight_sum > 0.0) {
    const float inv = static_cast<float>(1.0 / out.weight_sum);
    for (auto& v : out.mean_delta) v *= inv;
  }
  return out;
}

std::size_t ShardedAggregator::queued_or_inflight() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->queued_or_inflight();
  return total;
}

}  // namespace papaya::fl

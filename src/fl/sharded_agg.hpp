#pragma once
// Sharded server-side aggregation (Sec. 6.3, scaled out).
//
// A single ParallelAggregator scales until its one queue mutex and one
// reduce loop saturate.  ShardedAggregator scales past that by consistent-
// hashing client update *streams* (keyed by client id) onto N independent
// ParallelAggregator shards — each with its own queue, worker pool, and
// intermediate aggregates — exactly the hardware-proportional layout
// Sec. 6.3 sketches for hashed intermediates, lifted one level up so whole
// worker pools, not just intermediate slots, multiply.
//
// Placement goes through a ConsistentHashRing so (1) a stream's updates
// always land on the same shard (per-stream FIFO order is preserved), and
// (2) resharding moves only ~1/(N+1) of the streams.  reduce_and_reset()
// performs the cross-shard reduce: each shard contributes its raw weighted
// sum, and the weighted mean is computed once over the global weight, so the
// result is the same set of folds a single aggregator would have performed.

#include <cstdint>
#include <memory>
#include <vector>

#include "fl/parallel_agg.hpp"
#include "fl/shard_ring.hpp"
#include "util/bytes.hpp"

namespace papaya::fl {

// Lock hierarchy (util/sync.hpp): the ShardedAggregator holds no lock of its
// own — shards are fixed at construction and routing is a pure consistent
// hash — so every synchronization need delegates to the per-shard
// ParallelAggregator (reduce_mutex_ above queue_mutex_).
class ShardedAggregator {
 public:
  struct Config {
    std::size_t model_size = 0;
    /// Independent ParallelAggregator shards (0 normalized to 1).
    std::size_t num_shards = 1;
    /// Worker threads per shard (the Sec. 6.3 pool), one accumulator each.
    std::size_t threads_per_shard = 1;
    /// Ring virtual nodes per shard (placement evenness knob).
    std::size_t vnodes_per_shard = 64;
    /// Per-update L2 clip applied by every shard (0 disables).
    float clip_norm = 0.0f;
    /// Queued updates a shard worker pops per wakeup (0 normalized to 1):
    /// TaskConfig::aggregation_batch_size, amortizing queue-lock traffic
    /// without changing the folds.
    std::size_t drain_batch = 1;
  };

  explicit ShardedAggregator(const Config& config);

  ShardedAggregator(const ShardedAggregator&) = delete;
  ShardedAggregator& operator=(const ShardedAggregator&) = delete;

  /// Route one serialized update to the shard owning `stream_key`'s arc of
  /// the ring.  Updates from the same stream always hit the same shard.
  void enqueue(std::uint64_t stream_key, util::Bytes serialized_update,
               double weight);

  /// Block until every shard's queue is drained and folded.
  void drain();

  /// Cross-shard reduce: drain + reduce every shard, combine the raw
  /// weighted sums, then normalize once by the global weight.  Safe against
  /// concurrent enqueue() (each shard's reduce quiesces its own pool; a
  /// racing update lands in that shard's next buffer) and against
  /// concurrent reduces: each shard's read-then-reset is exclusive, so every
  /// folded update lands in exactly one reducer's result — though two racing
  /// cross-shard reduces may split the shards between them.
  ParallelAggregator::Reduced reduce_and_reset();

  std::size_t num_shards() const { return shards_.size(); }
  std::size_t shard_for(std::uint64_t stream_key) const {
    return ring_.shard_for(stream_key);
  }
  const ConsistentHashRing& ring() const { return ring_; }

  /// Updates not yet folded, summed over shards (point-in-time snapshot).
  std::size_t queued_or_inflight() const;

  /// Hot-path counters summed over shards (max_queue_depth is the max).
  AggStats stats_snapshot() const;

  /// One shard's counters (test hook: the FSM harness asserts per-shard
  /// update conservation — enqueued == folded, dropped == 0 — after a
  /// quiesce drain, not just the cross-shard sum).
  AggStats shard_stats(std::size_t shard) const {
    return shards_[shard]->stats_snapshot();
  }

 private:
  std::size_t model_size_;
  ConsistentHashRing ring_;
  std::vector<std::unique_ptr<ParallelAggregator>> shards_;
};

}  // namespace papaya::fl

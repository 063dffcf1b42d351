#pragma once
// Parallel model aggregation (Sec. 6.3).
//
// "Once a client completes training, it uploads the trained serialized model
//  update to the server.  This update is then pushed into an in-memory queue
//  on the Aggregator.  A different thread drains the queue by de-serializing
//  the updates into trainable parameters and aggregating them.  To speed up
//  this aggregation, we parallelize the aggregation process across available
//  cores.  To reduce lock contention, the ID of the thread performing
//  intermediate aggregation is hashed to choose one of the intermediate
//  aggregates."
//
// This module keeps the paper's queue + worker-pool shape and takes the
// lock-contention trick to its limit: every worker owns one private
// intermediate aggregate, so the fold itself takes no lock at all.  A worker
// pops a run of queued updates under the queue lock, then folds each one
// straight from its wire bytes (UpdateView, no ModelUpdate materialization;
// clipping copies into a per-worker scratch buffer first) into its own
// accumulator in FIFO order.
//
// reduce_and_reset() quiesces the pool — waits for the queue to drain and
// every in-flight run to finish, then pauses the workers, all under the
// queue lock — and merges the touched accumulators in worker order.  The
// handshake makes an update enqueued mid-reduce land in the *next* buffer,
// and is the happens-before edge that makes the workers' unlocked
// accumulators safe to read.  Reducers are mutually exclusive (reduce_mutex_),
// so two concurrent reduces can never merge the same accumulator twice.
//
// Exactness: a single-worker pool performs acc[i] += float(w) * x[i] over
// its updates in arrival order, then one normalization, so its result is a
// pure function of the enqueue sequence.  Multi-worker pools are
// order-nondeterministic (which worker folds which update is a race);
// conservation suites use exact-in-float values there.

#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "util/bytes.hpp"
#include "util/sync.hpp"

namespace papaya::fl {

/// One weighted partial sum (the Sec. 6.3 "intermediate aggregate").
struct Intermediate {
  std::vector<float> weighted_delta;  ///< sum of w_i * delta_i
  double weight_sum = 0.0;
  std::size_t count = 0;
};

/// A reduced aggregation buffer.  `mean_delta` holds the weighted mean after
/// ParallelAggregator::reduce_and_reset(), or the raw weighted sum after
/// reduce_and_reset_sums() (cross-shard combining).
struct AggReduced {
  std::vector<float> mean_delta;
  double weight_sum = 0.0;
  std::size_t count = 0;
};

/// One queued serialized update with its precomputed weight.
struct QueuedUpdate {
  util::Bytes bytes;
  double weight = 0.0;
};

/// Cumulative hot-path counters of one pool (or summed over shards).  After
/// a drain, folded + dropped == enqueued.
struct AggStats {
  std::uint64_t enqueued = 0;        ///< updates pushed into the queue
  std::uint64_t enqueued_bytes = 0;  ///< serialized bytes pushed
  std::uint64_t folded = 0;          ///< updates folded into an accumulator
  std::uint64_t dropped = 0;         ///< malformed updates discarded
  std::uint64_t max_queue_depth = 0; ///< high-water queue length
  std::uint64_t reduces = 0;         ///< reduce_and_reset calls
};

class ParallelAggregator {
 public:
  /// `clip_norm` > 0 rescales each delta to at most that L2 norm before
  /// aggregation (per-update clipping for differential privacy).
  /// `drain_batch` is the number of queued updates a worker pops per wakeup
  /// (>= 1): one queue-lock acquisition amortizes over the whole run, and
  /// each popped run is folded in FIFO order, so the folds are the same as
  /// per-update draining would perform.
  ParallelAggregator(std::size_t model_size, std::size_t num_threads,
                     float clip_norm = 0.0f, std::size_t drain_batch = 1);
  ~ParallelAggregator();

  ParallelAggregator(const ParallelAggregator&) = delete;
  ParallelAggregator& operator=(const ParallelAggregator&) = delete;

  /// Push one serialized update with its precomputed weight into the queue.
  void enqueue(util::Bytes serialized_update, double weight);

  /// Block until the queue is drained and all in-flight work has been folded.
  void drain();

  /// Drain, then reduce the workers' accumulators into (weighted mean delta,
  /// total weight, count), and reset for the next buffer.
  using Reduced = AggReduced;
  Reduced reduce_and_reset();

  /// Like reduce_and_reset(), but `mean_delta` holds the raw weighted sum
  /// (sum of w_i * delta_i) — not divided by `weight_sum`.  Cross-shard
  /// reduction (ShardedAggregator) combines shards with this so the final
  /// mean is computed exactly once over the global weight.
  Reduced reduce_and_reset_sums();

  std::size_t queued_or_inflight() const;

  /// Hot-path counters (cumulative since construction).
  AggStats stats_snapshot() const;

 private:
  void worker_loop(std::size_t worker_index);

  const std::size_t model_size_;
  const float clip_norm_;
  const std::size_t drain_batch_;
  /// One private accumulator per worker, allocated on its first fold.
  /// Written only by its worker between popping a run and retiring it from
  /// inflight_; read and reset only by a reducer with the pool quiesced.
  std::vector<Intermediate> accumulators_;

  /// Lock hierarchy (util/sync.hpp): reduce_mutex_ serializes reducers and
  /// is taken above queue_mutex_; workers take only queue_mutex_, and never
  /// while folding.
  mutable util::Mutex queue_mutex_;
  util::Mutex reduce_mutex_ PAPAYA_ACQUIRED_BEFORE(queue_mutex_);
  util::CondVar queue_cv_;
  util::CondVar drained_cv_;
  std::deque<QueuedUpdate> queue_ PAPAYA_GUARDED_BY(queue_mutex_);
  std::size_t inflight_ PAPAYA_GUARDED_BY(queue_mutex_) = 0;
  bool stopping_ PAPAYA_GUARDED_BY(queue_mutex_) = false;
  /// True while a reducer reads/resets the accumulators; workers leave the
  /// queue untouched so mid-reduce enqueues survive into the next buffer.
  bool paused_ PAPAYA_GUARDED_BY(queue_mutex_) = false;
  AggStats stats_ PAPAYA_GUARDED_BY(queue_mutex_);

  std::vector<std::thread> workers_;
};

}  // namespace papaya::fl

#include "fl/parallel_agg.hpp"

#include <algorithm>
#include <stdexcept>

#include "fl/model_update.hpp"
#include "ml/math.hpp"

namespace papaya::fl {

ParallelAggregator::ParallelAggregator(std::size_t model_size,
                                       std::size_t num_threads,
                                       float clip_norm,
                                       std::size_t drain_batch)
    : model_size_(model_size),
      clip_norm_(clip_norm),
      drain_batch_(drain_batch == 0 ? 1 : drain_batch),
      accumulators_(num_threads == 0 ? 1 : num_threads) {
  if (model_size == 0) {
    throw std::invalid_argument("ParallelAggregator: model_size must be > 0");
  }
  workers_.reserve(accumulators_.size());
  for (std::size_t i = 0; i < accumulators_.size(); ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ParallelAggregator::~ParallelAggregator() {
  {
    util::LockGuard lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ParallelAggregator::enqueue(util::Bytes serialized_update, double weight) {
  const std::size_t bytes = serialized_update.size();
  {
    util::LockGuard lock(queue_mutex_);
    queue_.push_back(QueuedUpdate{std::move(serialized_update), weight});
    ++stats_.enqueued;
    stats_.enqueued_bytes += bytes;
    stats_.max_queue_depth =
        std::max<std::uint64_t>(stats_.max_queue_depth, queue_.size());
  }
  queue_cv_.notify_one();
}

void ParallelAggregator::worker_loop(std::size_t worker_index) {
  Intermediate& acc = accumulators_[worker_index];
  std::vector<float> clipped;  // the clip rescales the whole delta: copy first
  std::vector<QueuedUpdate> run;
  run.reserve(drain_batch_);
  for (;;) {
    // Drain up to drain_batch_ queued updates in one queue-lock acquisition
    // (TaskConfig::aggregation_batch_size).  The run is folded in FIFO order
    // by one worker, so batching changes only lock traffic, not which folds
    // happen or their per-accumulator order.
    run.clear();
    {
      util::LockGuard lock(queue_mutex_);
      queue_cv_.wait(queue_mutex_, lock, [this] {
        queue_mutex_.assert_held();  // TSA: predicate runs under the wait lock
        return stopping_ || (!paused_ && !queue_.empty());
      });
      if (queue_.empty()) return;  // stopping
      const std::size_t take = std::min(drain_batch_, queue_.size());
      for (std::size_t i = 0; i < take; ++i) {
        run.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      inflight_ += take;
    }

    // Lock-free fold into this worker's accumulator, straight from the wire
    // bytes.  A malformed update must not poison the aggregate, so it simply
    // drops out of the run.
    std::size_t folded = 0;
    for (const QueuedUpdate& queued : run) {
      const auto view = UpdateView::parse(queued.bytes, model_size_);
      if (!view) continue;
      if (acc.weighted_delta.empty()) {
        acc.weighted_delta.assign(model_size_, 0.0f);
      }
      float* sum = acc.weighted_delta.data();
      const float w = static_cast<float>(queued.weight);
      if (clip_norm_ > 0.0f) {
        clipped.resize(model_size_);
        view->copy_to(clipped);
        ml::clip_norm(clipped, clip_norm_);
        for (std::size_t i = 0; i < model_size_; ++i) sum[i] += w * clipped[i];
      } else {
        for (std::size_t i = 0; i < model_size_; ++i) sum[i] += w * view->at(i);
      }
      acc.weight_sum += queued.weight;
      ++acc.count;
      ++folded;
    }

    {
      util::LockGuard lock(queue_mutex_);
      inflight_ -= run.size();
      stats_.folded += folded;
      stats_.dropped += run.size() - folded;
    }
    drained_cv_.notify_all();
  }
}

void ParallelAggregator::drain() {
  util::LockGuard lock(queue_mutex_);
  drained_cv_.wait(queue_mutex_, lock, [this] {
    queue_mutex_.assert_held();
    return queue_.empty() && inflight_ == 0;
  });
}

ParallelAggregator::Reduced ParallelAggregator::reduce_and_reset_sums() {
  // One reducer at a time: two reducers that both passed the drained wait
  // would otherwise each add the same accumulators before either reset them.
  util::LockGuard reducing(reduce_mutex_);
  // Quiesce the pool before touching the accumulators.  The drained
  // predicate and the pause flag are evaluated/set under one queue_mutex_
  // critical section: everything enqueued before this point is folded, and
  // workers cannot pick up anything enqueued after, so a racing enqueue
  // lands intact in the *next* buffer instead of being folded into an
  // accumulator that this reduce already summed-and-reset.  The same
  // handshake orders every worker's accumulator writes before the reads
  // below.
  {
    util::LockGuard lock(queue_mutex_);
    drained_cv_.wait(queue_mutex_, lock, [this] {
      queue_mutex_.assert_held();
      return queue_.empty() && inflight_ == 0;
    });
    paused_ = true;
    ++stats_.reduces;
  }
  Reduced out;
  out.mean_delta.assign(model_size_, 0.0f);
  // Worker order, untouched accumulators skipped: a single-worker pool's
  // reduce is 0 + its one accumulator.
  for (Intermediate& acc : accumulators_) {
    if (acc.count == 0) continue;
    for (std::size_t i = 0; i < model_size_; ++i) {
      out.mean_delta[i] += acc.weighted_delta[i];
    }
    out.weight_sum += acc.weight_sum;
    out.count += acc.count;
    acc.weighted_delta.assign(model_size_, 0.0f);
    acc.weight_sum = 0.0;
    acc.count = 0;
  }
  {
    util::LockGuard lock(queue_mutex_);
    paused_ = false;
  }
  queue_cv_.notify_all();  // wake workers for anything enqueued mid-reduce
  return out;
}

ParallelAggregator::Reduced ParallelAggregator::reduce_and_reset() {
  Reduced out = reduce_and_reset_sums();
  if (out.weight_sum > 0.0) {
    const float inv = static_cast<float>(1.0 / out.weight_sum);
    for (auto& v : out.mean_delta) v *= inv;
  }
  return out;
}

std::size_t ParallelAggregator::queued_or_inflight() const {
  util::LockGuard lock(queue_mutex_);
  return queue_.size() + inflight_;
}

AggStats ParallelAggregator::stats_snapshot() const {
  util::LockGuard lock(queue_mutex_);
  return stats_;
}

}  // namespace papaya::fl

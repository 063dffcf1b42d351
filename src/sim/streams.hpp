#pragma once
// Hierarchical RNG streams for the simulator: who draws what, addressed as
// (root seed, entity, purpose, draw index).
//
// Each (entity, purpose) pair owns a counter-based util::StreamRng whose
// i-th draw is a pure function of (root_seed, entity, purpose, i).  Draw
// values are therefore independent of event interleaving: a change in
// *when* events run (e.g. a closed-loop schedule reacting to client
// completion times) never shifts what any device draws, so trajectories
// stay comparable and the schedule may legally react to sampled values.

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace papaya::sim {

/// What a draw is *for*.  Every stochastic quantity on the simulator's
/// participation path names one of these; adding a draw site means adding a
/// purpose (never reusing one — reuse would alias two sites' streams).
enum class StreamPurpose : std::uint64_t {
  kCheckInBackoff = 1,  ///< initial stagger + inter-check-in exponential
  kAvailability = 2,    ///< idle/charging/unmetered Bernoulli per check-in
  kExecTime = 3,        ///< per-participation execution-time jitter
  kDownloadJitter = 4,  ///< per-participation download bandwidth draw
  kUploadJitter = 5,    ///< per-participation upload bandwidth draw
  kDropout = 6,         ///< dropout Bernoulli + mid-training dropout point
  kTraining = 7,        ///< local-SGD shuffle stream (seed derivation)
  kRouting = 8,         ///< Selector choice when routing to the task owner
  // FSM workload harness (src/fsm/): one triple per harness actor, so a
  // failure replays from (seed, actor, step) alone.
  kFsmAction = 9,    ///< per-step transition choice in fsm::run_workload
  kFsmPayload = 10,  ///< state-action draws (weights, deltas, picks)
  kFsmScenario = 11, ///< scenario injection (availability, byzantine flips)
  // Million-device scale-out (lazy materialization + streaming metrics).
  kProfile = 12,          ///< DevicePopulation keyed profile draws
  kMetricsSampling = 13,  ///< reservoir sampling of participation records
};

/// Single-valued and never branched on; fleetbench naming it is its only use.
enum class RngStreamMode { kPerEntity };

class SimStreams {
 public:
  /// Entity id for server-side draws with no client attached (final-report
  /// routing, evaluation routing, failure injection).
  static constexpr std::uint64_t kServerEntity = ~0ULL;

  /// `dense_entities` enables the dense-counter representation for entities
  /// with id < dense_entities: instead of materializing a StreamRng object
  /// per (entity, purpose) in a hash map (~100 B per pair — hundreds of MB
  /// at a million devices), with() keeps only a u32 draw counter per entity
  /// in a lazily-allocated per-purpose array (4 B per entity per touched
  /// purpose) and reconstructs the StreamRng around it on every call.  The
  /// draws are bit-identical either way: a StreamRng's i-th output is a
  /// pure function of (key, i), so (key, counter) is the whole state.
  explicit SimStreams(std::uint64_t root_seed, std::size_t dense_entities = 0)
      : root_(root_seed), dense_entities_(dense_entities) {}

  /// Ignores the mode; fleetbench calling it is the only reason it exists.
  SimStreams(std::uint64_t root_seed, RngStreamMode /*mode*/,
             std::size_t dense_entities)
      : SimStreams(root_seed, dense_entities) {}

  /// Run `fn` with the generator for (entity, purpose).  `fn` must be
  /// callable with a util::StreamRng (generic lambdas are the norm).
  template <class Fn>
  auto with(std::uint64_t entity, StreamPurpose purpose, Fn&& fn)
      -> decltype(fn(std::declval<util::StreamRng&>())) {
    const auto purpose_idx = static_cast<std::size_t>(purpose);
    if (entity < dense_entities_ && purpose_idx < kDensePurposes) {
      std::uint32_t& counter = dense_counter(entity, purpose_idx);
      util::StreamRng rng(util::StreamRng::derive_key(
          root_, entity, static_cast<std::uint64_t>(purpose)));
      rng.seek(counter);
      auto result = fn(rng);
      counter = static_cast<std::uint32_t>(rng.draw_index());
      return result;
    }
    return fn(stream(entity, purpose));
  }

  double uniform(std::uint64_t entity, StreamPurpose p, double lo, double hi) {
    return with(entity, p, [&](auto& g) { return g.uniform(lo, hi); });
  }
  double uniform01(std::uint64_t entity, StreamPurpose p) {
    return with(entity, p, [&](auto& g) { return g.uniform(); });
  }
  double exponential(std::uint64_t entity, StreamPurpose p, double lambda) {
    return with(entity, p, [&](auto& g) { return g.exponential(lambda); });
  }
  bool bernoulli(std::uint64_t entity, StreamPurpose p, double prob) {
    return with(entity, p, [&](auto& g) { return g.bernoulli(prob); });
  }
  std::uint64_t uniform_int(std::uint64_t entity, StreamPurpose p,
                            std::uint64_t n) {
    return with(entity, p, [&](auto& g) { return g.uniform_int(n); });
  }

  /// Seed for a client's local-training Rng (the kTraining purpose).  Local
  /// SGD consumes thousands of draws, so it expands a per-participation seed
  /// through xoshiro rather than hashing per draw; the seed is keyed like
  /// every other draw, so no other draw can move it.
  std::uint64_t training_seed(std::uint64_t client_id,
                              std::uint64_t generation) const {
    return util::StreamRng::derive_key(
               root_, client_id,
               static_cast<std::uint64_t>(StreamPurpose::kTraining)) ^
           generation;
  }

  /// The dedicated stream for (entity, purpose); lazily materialized, so
  /// idle entities cost nothing.
  ///
  /// NOT thread-safe: materialization inserts into an unordered_map.
  /// Concurrent users (the FSM harness) must call stream() for every
  /// (entity, purpose) they will touch *before* going parallel — returned
  /// references stay stable once no further inserts happen.
  util::StreamRng& stream(std::uint64_t entity, StreamPurpose purpose) {
    const std::uint64_t key = util::StreamRng::derive_key(
        root_, entity, static_cast<std::uint64_t>(purpose));
    auto [it, inserted] = streams_.try_emplace(key, util::StreamRng(key));
    return it->second;
  }

  /// Streams materialized so far (test hook: the FSM harness asserts its
  /// pre-materialization discipline against it).
  std::size_t materialized_streams() const { return streams_.size(); }

  /// Route a dense purpose's draw counters into caller-owned storage:
  /// entity e's counter lives at base[e * stride] (stride in u32 units).
  /// The simulator binds its check-in purposes into the per-device record
  /// array so a rejected check-in — two draws against the same device —
  /// touches one cache line instead of two 40 MB-apart arrays.  Draw
  /// values are bit-identical to the internal layout: a StreamRng's i-th
  /// output depends only on (key, counter), never on where the counter is
  /// stored.  The storage must outlive this SimStreams and cover every
  /// entity below dense_entities; any counters already accumulated in the
  /// internal array are NOT migrated, so bind before the first draw.
  void bind_dense_counters(StreamPurpose purpose, std::uint32_t* base,
                           std::size_t stride) {
    const auto idx = static_cast<std::size_t>(purpose);
    if (idx < kDensePurposes) bound_[idx] = {base, stride};
  }

 private:
  /// Purposes eligible for dense counters (indexed by enum value).  Growing
  /// the enum past this only means new purposes take the map path.
  static constexpr std::size_t kDensePurposes = 16;

  std::uint32_t& dense_counter(std::uint64_t entity, std::size_t purpose_idx) {
    const Binding& bound = bound_[purpose_idx];
    if (bound.base != nullptr) return bound.base[entity * bound.stride];
    std::vector<std::uint32_t>& counters = dense_[purpose_idx];
    if (counters.empty()) counters.assign(dense_entities_, 0);
    return counters[entity];
  }

  std::uint64_t root_;
  std::unordered_map<std::uint64_t, util::StreamRng> streams_;
  std::size_t dense_entities_ = 0;
  /// Per-purpose draw counters for dense entities; a purpose's array is
  /// allocated on its first draw, so untouched purposes cost nothing.
  std::array<std::vector<std::uint32_t>, kDensePurposes> dense_;
  /// Caller-owned counter storage (bind_dense_counters); base == nullptr
  /// means the purpose uses the internal dense_ array above.
  struct Binding {
    std::uint32_t* base = nullptr;
    std::size_t stride = 1;
  };
  std::array<Binding, kDensePurposes> bound_{};
};

}  // namespace papaya::sim

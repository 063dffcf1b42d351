#pragma once
// Heterogeneous device population (Sec. 2, Fig. 2; Sec. 7.4, Fig. 11).
//
// Three properties of the production fleet drive every headline result, and
// all three are first-class parameters here:
//  1. Client execution times are log-normally distributed, spanning more
//     than two orders of magnitude (Fig. 2).
//  2. Example counts are positively correlated with slowness — "the slowest
//     clients often have more training examples" (Sec. 7.4) — modelled with
//     a Gaussian copula between the hardware-slowness draw and the
//     example-count draw.
//  3. Around 10% of clients drop out mid-participation (Fig. 1 caption).

#include <cstdint>
#include <string>
#include <vector>

namespace papaya::sim {

struct DeviceProfile {
  std::uint64_t id = 0;
  /// Hardware slowness multiplier (log-normal across the fleet).
  double hardware_factor = 1.0;
  /// Number of locally stored examples (correlated with hardware_factor).
  std::size_t num_examples = 0;
  /// Mean execution time for one local-training participation, seconds.
  double mean_exec_time_s = 0.0;
  /// Probability this device drops out during a participation.
  double dropout_prob = 0.1;
  /// Capability tags used for task eligibility.
  std::vector<std::string> capabilities;
};

/// Single-valued and never branched on; fleetbench naming it is its only use.
enum class ProfileSynthesis { kKeyedLazy };

struct PopulationConfig {
  std::size_t num_devices = 5000;
  /// Log-normal hardware-slowness parameters: median exp(mu), spread sigma.
  /// sigma = 1.1 gives roughly 2.5 orders of magnitude between the 1st and
  /// 99th percentile, matching Fig. 2's shape.
  double lognormal_mu = 1.0;      ///< median hardware factor e^1 ~ 2.7
  double lognormal_sigma = 1.1;
  /// Example-count range and its correlation with slowness.
  std::size_t min_examples = 4;
  std::size_t max_examples = 64;
  double slowness_example_correlation = 0.8;
  /// Per-example incremental training cost (seconds) and fixed overhead.
  double base_exec_time_s = 2.0;
  double per_example_time_s = 0.25;
  /// Mid-participation dropout probability ("we see up to 10% of clients
  /// drop").
  double dropout_prob = 0.10;
  /// Per-participation execution-time jitter (log-normal sigma).
  double jitter_sigma = 0.2;
  std::uint64_t seed = 42;
  /// Ignored; fleetbench setting it is the only reason it exists.
  ProfileSynthesis synthesis = ProfileSynthesis::kKeyedLazy;
};

/// Device profiles are keyed and lazy: device i's profile is a pure function
/// of (seed, i, StreamPurpose::kProfile), synthesized on every call.
/// Nothing is stored per device, so a 10M-device population costs O(1)
/// memory, and any subset of devices can be read in any order.
class DevicePopulation {
 public:
  explicit DevicePopulation(const PopulationConfig& config);

  std::size_t size() const { return config_.num_devices; }

  /// Device i's profile (throws std::out_of_range past size()).  Cheap: a
  /// DeviceProfile is a few scalars plus an empty capability vector.
  DeviceProfile profile(std::size_t i) const;

  /// Sample the execution time of one participation of device `i`.  Generic
  /// over the generator so the simulator can draw from the device's own
  /// exec-time stream (sim/streams.hpp).
  template <class RngT>
  double sample_exec_time(std::size_t i, RngT& rng) const {
    return profile(i).mean_exec_time_s *
           rng.lognormal(0.0, config_.jitter_sigma);
  }

  /// Half-open quantile-to-bucket map for the example-count copula draw:
  /// bucket k (of R = hi - lo + 1) owns exactly u in [k/R, (k+1)/R), and the
  /// closed edge u == 1.0 (phi saturates in double for z >~ 8.3) belongs to
  /// the top bucket rather than indexing one past the range.  Exposed for
  /// the bucket-weight distribution test.
  static std::size_t example_count_from_quantile(double u, std::size_t lo,
                                                 std::size_t hi);

  const PopulationConfig& config() const { return config_; }

 private:
  PopulationConfig config_;
};

}  // namespace papaya::sim

#pragma once
// Network/latency model for client <-> server traffic.
//
// Clients download the model from a CDN and upload serialized updates in
// chunks (Sec. 6.1).  The model here is a per-device bandwidth draw plus a
// round-trip latency; it shifts absolute times without changing the
// sync-vs-async comparison, and it gives the "communication trips"
// accounting a concrete byte volume.
//
// The jitter draw is generic over the generator (util::Rng or a
// util::StreamRng handed out by sim::SimStreams), so the simulator can key
// each participation's bandwidth draw to its device instead of a shared
// sequence — see src/sim/streams.hpp.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace papaya::sim {

struct NetworkConfig {
  double mean_download_mbps = 20.0;
  double mean_upload_mbps = 8.0;
  double bandwidth_sigma = 0.5;  ///< log-normal spread across devices
  double rtt_s = 0.1;
  /// Device-side serialization throughput (Mbit/s): how fast the client
  /// runtime turns trained parameters into wire bytes (encode + flash
  /// write).  Used by the pipelined client runtime to cost the serialize
  /// stage; deliberately deterministic (no per-device jitter draw) so
  /// enabling pipelining consumes no extra randomness.
  double serialize_mbps = 160.0;
};

class NetworkModel {
 public:
  explicit NetworkModel(NetworkConfig config) : config_(config) {
    // A nonpositive bandwidth would divide transfer_time through to an
    // infinite/negative duration and silently wedge the event schedule;
    // reject it at construction, where the bad config is still attributable.
    if (config_.mean_download_mbps <= 0.0 || config_.mean_upload_mbps <= 0.0 ||
        config_.serialize_mbps <= 0.0) {
      throw std::invalid_argument("NetworkModel: bandwidths must be > 0 Mbps");
    }
    if (config_.rtt_s < 0.0) {
      throw std::invalid_argument("NetworkModel: negative RTT");
    }
  }

  /// Time to download `bytes` for a device with slowness jitter from `rng`.
  template <class RngT>
  double download_time_s(std::uint64_t bytes, RngT& rng) const {
    return transfer_time(bytes, config_.mean_download_mbps, rng);
  }

  template <class RngT>
  double upload_time_s(std::uint64_t bytes, RngT& rng) const {
    return transfer_time(bytes, config_.mean_upload_mbps, rng);
  }

  /// Serialization cost of `bytes` on the device (deterministic).
  double serialize_time_s(std::uint64_t bytes) const {
    return static_cast<double>(bytes) * 8.0 / (config_.serialize_mbps * 1e6);
  }

  /// Split one drawn upload duration across the chunks of a chunked upload,
  /// proportionally to chunk bytes.  The RTT (connection setup) is charged
  /// to the first chunk; the chunk times sum back to exactly
  /// `total_upload_s`, so the pipelined and sequential runtimes move the
  /// same simulated byte volume in the same total transfer time and the
  /// split consumes no extra randomness.
  std::vector<double> split_upload_time(
      double total_upload_s, const std::vector<std::uint64_t>& chunk_bytes) const {
    std::uint64_t total_bytes = 0;
    for (const std::uint64_t b : chunk_bytes) total_bytes += b;
    const double transfer = std::max(0.0, total_upload_s - config_.rtt_s);
    std::vector<double> times(chunk_bytes.size(), 0.0);
    for (std::size_t i = 0; i < chunk_bytes.size(); ++i) {
      const double frac =
          total_bytes == 0
              ? 1.0 / static_cast<double>(chunk_bytes.size())
              : static_cast<double>(chunk_bytes[i]) /
                    static_cast<double>(total_bytes);
      times[i] = transfer * frac;
    }
    if (!times.empty()) times[0] += total_upload_s - transfer;
    return times;
  }

  const NetworkConfig& config() const { return config_; }

 private:
  template <class RngT>
  double transfer_time(std::uint64_t bytes, double mean_mbps,
                       RngT& rng) const {
    // A zero-byte transfer opens no connection: it costs nothing, and it
    // must not consume a jitter draw (draw budgets are per-participation
    // invariants of the per-entity streams).
    if (bytes == 0) return 0.0;
    const double mbps = mean_mbps * rng.lognormal(0.0, config_.bandwidth_sigma);
    const double seconds =
        static_cast<double>(bytes) * 8.0 / (mbps * 1e6) + config_.rtt_s;
    return seconds;
  }

  NetworkConfig config_;
};

}  // namespace papaya::sim

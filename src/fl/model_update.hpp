#pragma once
// Client model updates and their weighting (Sec. 3.1, App. E.2).
//
// A model update is the difference between the locally trained model and the
// model the client downloaded.  Updates are weighted by the number of
// training examples and down-weighted by staleness: w = 1 / sqrt(1 + s),
// where s = version_at_upload - version_at_download.

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "util/bytes.hpp"

namespace papaya::fl {

struct ModelUpdate {
  std::uint64_t client_id = 0;
  /// Server model version the client started training from.
  std::uint64_t initial_version = 0;
  /// Number of local training examples (weighting, Sec. 3.1).
  std::size_t num_examples = 0;
  /// trained_params - initial_params.
  std::vector<float> delta;

  /// Wire format used between client and Aggregator (clients upload the
  /// serialized update in chunks; the Aggregator's queue holds these bytes
  /// until a worker folds them, Sec. 6.3): client_id u64 | initial_version
  /// u64 | num_examples u64 | count u64 | count * f32, all little-endian.
  util::Bytes serialize() const;
  static ModelUpdate deserialize(const util::Bytes& bytes);
};

/// A bounds-checked view over one serialized ModelUpdate's float payload —
/// the aggregation fold reads the wire bytes in place instead of
/// materializing a ModelUpdate.  This is a trust-boundary decoder: the bytes
/// come straight off a client upload.
struct UpdateView {
  const std::uint8_t* payload = nullptr;  ///< count * 4 bytes of LE f32 bits
  std::size_t count = 0;

  /// Parses `bytes`; returns nullopt unless the update is well-formed AND
  /// carries exactly `expect` parameters (malformed updates are dropped).
  static std::optional<UpdateView> parse(const util::Bytes& bytes,
                                         std::size_t expect);

  float at(std::size_t i) const {
    float v;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, payload + 4 * i, 4);
    } else {
      const std::uint8_t* p = payload + 4 * i;
      const std::uint32_t bits =
          static_cast<std::uint32_t>(p[0]) |
          (static_cast<std::uint32_t>(p[1]) << 8) |
          (static_cast<std::uint32_t>(p[2]) << 16) |
          (static_cast<std::uint32_t>(p[3]) << 24);
      std::memcpy(&v, &bits, 4);
    }
    return v;
  }

  /// Decode the whole payload into `out` (out.size() == count).
  void copy_to(std::span<float> out) const;
};

/// Staleness down-weighting families.  The paper (App. E.2) uses the
/// inverse-sqrt scheme of Nguyen et al. 2021; the others are the standard
/// alternatives from Xie et al. 2019, implemented for the weighting
/// ablation (bench_ablation_weighting).
enum class StalenessScheme {
  kInverseSqrt,  ///< 1 / sqrt(1 + s) — the paper's production choice
  kConstant,     ///< 1 (no down-weighting)
  kInversePoly,  ///< (1 + s)^-a for a configurable exponent a
  kHinge,        ///< 1 for s <= b, then 1 / (1 + a (s - b))
};

const char* to_string(StalenessScheme scheme);

/// Knobs for the parametric schemes; ignored by kInverseSqrt/kConstant.
struct StalenessParams {
  double exponent = 0.5;          ///< a in kInversePoly
  std::uint64_t hinge_cutoff = 10;///< b in kHinge
  double hinge_slope = 0.2;       ///< a in kHinge
};

/// Weight of an update with staleness `s` under the given scheme.  Always in
/// (0, 1]; equals 1 at s = 0 for every scheme.
double staleness_weight(StalenessScheme scheme, std::uint64_t staleness,
                        const StalenessParams& params = {});

/// Staleness down-weighting from Nguyen et al. 2021 (App. E.2):
/// 1 / sqrt(1 + s), the paper's default scheme.
double staleness_weight(std::uint64_t staleness);

/// Combined FedBuff update weight: example weighting * staleness weighting.
/// Example weighting is sqrt(n) — unbounded linear weighting would let one
/// data-heavy client dominate a small buffer.
double update_weight(std::size_t num_examples, std::uint64_t staleness);

}  // namespace papaya::fl

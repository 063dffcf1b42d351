#include "fl/model_update.hpp"

#include <cmath>

namespace papaya::fl {

util::Bytes ModelUpdate::serialize() const {
  util::ByteWriter w;
  w.u64(client_id);
  w.u64(initial_version);
  w.u64(num_examples);
  w.floats(delta);
  return std::move(w).take();
}

ModelUpdate ModelUpdate::deserialize(const util::Bytes& bytes) {
  util::ByteReader r(bytes);
  ModelUpdate out;
  out.client_id = r.u64();
  out.initial_version = r.u64();
  out.num_examples = r.u64();
  out.delta = r.floats();
  return out;
}

std::optional<UpdateView> UpdateView::parse(const util::Bytes& bytes,
                                            std::size_t expect) {
  // The header serialize() writes: three u64 fields, then the float count.
  constexpr std::size_t kHeaderBytes = 4 * 8;
  if (bytes.size() < kHeaderBytes) return std::nullopt;
  util::ByteReader r(bytes);
  for (int field = 0; field < 3; ++field) (void)r.u64();
  const std::uint64_t count = r.u64();
  if (count != expect) return std::nullopt;
  // Division form so a hostile count cannot overflow the byte math.
  if (count > r.remaining() / 4) return std::nullopt;
  return UpdateView{bytes.data() + kHeaderBytes,
                    static_cast<std::size_t>(count)};
}

void UpdateView::copy_to(std::span<float> out) const {
  if constexpr (std::endian::native == std::endian::little) {
    if (count > 0) std::memcpy(out.data(), payload, count * 4);
  } else {
    for (std::size_t i = 0; i < count; ++i) out[i] = at(i);
  }
}

const char* to_string(StalenessScheme scheme) {
  switch (scheme) {
    case StalenessScheme::kInverseSqrt:
      return "inverse-sqrt";
    case StalenessScheme::kConstant:
      return "constant";
    case StalenessScheme::kInversePoly:
      return "inverse-poly";
    case StalenessScheme::kHinge:
      return "hinge";
  }
  return "?";
}

double staleness_weight(StalenessScheme scheme, std::uint64_t staleness,
                        const StalenessParams& params) {
  const double s = static_cast<double>(staleness);
  switch (scheme) {
    case StalenessScheme::kInverseSqrt:
      return 1.0 / std::sqrt(1.0 + s);
    case StalenessScheme::kConstant:
      return 1.0;
    case StalenessScheme::kInversePoly:
      return std::pow(1.0 + s, -params.exponent);
    case StalenessScheme::kHinge:
      if (staleness <= params.hinge_cutoff) return 1.0;
      return 1.0 / (1.0 + params.hinge_slope *
                              (s - static_cast<double>(params.hinge_cutoff)));
  }
  return 1.0;
}

double staleness_weight(std::uint64_t staleness) {
  return staleness_weight(StalenessScheme::kInverseSqrt, staleness);
}

double update_weight(std::size_t num_examples, std::uint64_t staleness) {
  return std::sqrt(static_cast<double>(num_examples)) *
         staleness_weight(staleness);
}

}  // namespace papaya::fl

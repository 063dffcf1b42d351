#include "trace.hpp"

#include <cstdio>

namespace fleetbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kEventQueue: return "sim.event_queue";
    case Layer::kCheckin: return "sim.checkin";
    case Layer::kParticipation: return "sim.participation";
    case Layer::kTick: return "sim.tick";
    case Layer::kSelection: return "fl.selection";
    case Layer::kDownload: return "fl.download";
    case Layer::kTrain: return "ml.train";
    case Layer::kEval: return "ml.eval";
    case Layer::kUploadClient: return "fl.upload.client";
    case Layer::kUploadServer: return "fl.upload.server";
    case Layer::kAggReport: return "fl.aggregator.report";
    case Layer::kAggStep: return "fl.aggregator.step";
    case Layer::kSweep: return "fl.aggregator.sweep";
    case Layer::kSecConfig: return "secagg.config";
    case Layer::kSecPrepare: return "secagg.prepare";
    case Layer::kSecBuffer: return "secagg.buffer";
    case Layer::kSecFlush: return "secagg.report";
    case Layer::kSecStep: return "secagg.step";
    case Layer::kModelStore: return "fl.model_store";
    case Layer::kCheck: return "driver.check";
    case Layer::kCount: break;
  }
  return "?";
}

namespace {

/// Layers whose per-call durations are kept for a p50.
bool keeps_durations(Layer layer) {
  switch (layer) {
    case Layer::kTrain:
    case Layer::kAggReport:
    case Layer::kAggStep:
    case Layer::kSecPrepare:
    case Layer::kSecFlush:
    case Layer::kSecStep:
      return true;
    default:
      return false;
  }
}

/// Bounds the records kept in memory (~40 B each) and the JSON written.
constexpr std::size_t kMaxSpans = 200'000;

}  // namespace

Tracer::Tracer(bool enabled, std::uint32_t sample_period)
    : enabled_(enabled),
      sample_period_(sample_period == 0 ? 1 : sample_period),
      origin_ns_(now_ns()) {
  stack_.reserve(16);
}

void Tracer::open(Layer layer, std::uint64_t participation) {
  bool keep = true;
  std::int32_t parent = -1;
  if (!stack_.empty()) {
    const Open& up = stack_.back();
    keep = up.keep;
    if (participation == 0) participation = up.participation;
    if (keep) parent = static_cast<std::int32_t>(up.span);
  }
  // Sample at the handler level: top-level spans and their direct children
  // (the event loop's dispatched handlers); deeper spans follow their parent.
  if (stack_.size() <= 1) keep = keep && sampled_++ % sample_period_ == 0;
  keep = keep && spans_.size() < kMaxSpans;
  const std::int64_t start = now_ns();
  std::uint32_t index = 0;
  if (keep) {
    index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({start, start, participation, parent, layer});
  }
  stack_.push_back({layer, keep, index, start, 0, participation});
}

void Tracer::close(Layer layer) {
  const std::int64_t end = now_ns();
  const Open span = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end - span.start;
  LayerStats& s = stats_[static_cast<std::size_t>(layer)];
  ++s.calls;
  s.total_ns += dur;
  s.child_ns += span.child_ns;
  if (keeps_durations(layer)) s.durations_ns.push_back(dur);
  if (span.keep) {
    Record& rec = spans_[span.span];
    rec.end = end;
    rec.layer = layer;
    rec.participation = span.participation;
  }
  if (stack_.empty()) {
    top_level_ns_ += dur;
  } else {
    stack_.back().child_ns += dur;
  }
}

void Tracer::set_participation(std::uint64_t participation) {
  if (!enabled_ || stack_.empty()) return;
  stack_.back().participation = participation;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"participation\":%llu}}\n",
                 i == 0 ? "" : ",", layer_name(s.layer), layer_name(s.layer),
                 1e-3 * static_cast<double>(s.start - origin_ns_),
                 1e-3 * static_cast<double>(s.end - s.start), i, s.parent,
                 static_cast<unsigned long long>(s.participation));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace fleetbench

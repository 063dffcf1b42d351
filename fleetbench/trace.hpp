#pragma once
// Span tracer for the fleet driver.
//
// The driver wraps every call it makes into a papaya layer in a span
// (name, start, end, parent, participation id).  Per-layer counters and
// self times (span duration minus the part covered by child spans) are
// accumulated for every span; the span records themselves are kept in memory
// only for a sampled subset, bounded by a cap, and written at exit as Chrome
// trace-event JSON (opens offline in Perfetto or chrome://tracing).
//
// A disabled tracer records nothing; the driver measures its end-to-end
// metrics with it disabled.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace fleetbench {

/// Layers are named after the repository's modules (sim, fl, ml, secagg).
/// kCheck is not a layer: it marks the driver's own output checks, whose
/// time is excluded from every timed figure.
enum class Layer : std::uint8_t {
  kEventQueue,     ///< sim.event_queue: run_until minus dispatched handlers
  kCheckin,        ///< sim.checkin: check-in handler (draws, profile, gates)
  kParticipation,  ///< sim.participation: completion/dropout handler glue
  kTick,           ///< sim.tick: report-tick handler glue
  kSelection,      ///< fl.selection: assign_client/route/join/concluded
  kDownload,       ///< fl.download: model snapshot copy at join
  kTrain,          ///< ml.train: Executor::train
  kEval,           ///< ml.eval: LanguageModel::loss on the eval set
  kUploadClient,   ///< fl.upload.client: serialize + chunk + frame
  kUploadServer,   ///< fl.upload.server: deserialize + CRC + accept + assemble
  kAggReport,      ///< fl.aggregator.report: client_report, no step
  kAggStep,        ///< fl.aggregator.step: client_report that stepped
  kSweep,          ///< fl.aggregator.sweep: expire_timeouts
  kSecConfig,      ///< secagg.config: secure_upload_config
  kSecPrepare,     ///< secagg.prepare: SecureBufferManager::prepare_report
  kSecBuffer,      ///< secagg.buffer: client_report_secure, buffered only
  kSecFlush,       ///< secagg.report: client_report_secure completing a batch
  kSecStep,        ///< secagg.step: client_report_secure that stepped
  kModelStore,     ///< fl.model_store: ModelStore::publish
  kCheck,          ///< driver output checks (excluded from timing)
  kCount
};

const char* layer_name(Layer layer);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct LayerStats {
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;  ///< summed span durations
    std::int64_t child_ns = 0;  ///< part of those covered by child spans
    std::vector<std::int64_t> durations_ns;  ///< kept for p50 layers only

    double self_s() const { return 1e-9 * static_cast<double>(total_ns - child_ns); }
  };

  /// `sample_period`: keep the span records of one handler-level span
  /// (depth 0 or 1) in this many, with all of its descendants; 1 keeps every
  /// span.  At most 200,000 records are kept.  Counters and self times
  /// always cover every span.
  Tracer(bool enabled, std::uint32_t sample_period = 1);

  void begin(Layer layer, std::uint64_t participation = 0) {
    if (enabled_) open(layer, participation);
  }
  /// Closes the innermost span, optionally reclassifying it (a report turns
  /// out to have stepped the server only once it returns).
  void end() {
    if (enabled_) close(stack_.back().layer);
  }
  void end_as(Layer layer) {
    if (enabled_) close(layer);
  }
  /// Tags the innermost open span (and later children) with a participation.
  void set_participation(std::uint64_t participation);

  const LayerStats& stats(Layer layer) const {
    return stats_[static_cast<std::size_t>(layer)];
  }
  /// Summed durations of spans opened with no parent.
  std::int64_t top_level_ns() const { return top_level_ns_; }
  std::size_t kept_spans() const { return spans_.size(); }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Open {
    Layer layer;
    bool keep;
    std::uint32_t span;  ///< index into spans_ when kept
    std::int64_t start;
    std::int64_t child_ns;
    std::uint64_t participation;
  };
  struct Record {
    std::int64_t start;
    std::int64_t end;
    std::uint64_t participation;
    std::int32_t parent;  ///< index into spans_, -1 for none
    Layer layer;
  };

  void open(Layer layer, std::uint64_t participation);
  void close(Layer layer);

  bool enabled_;
  std::uint32_t sample_period_;
  std::uint64_t sampled_ = 0;
  std::int64_t top_level_ns_ = 0;
  std::int64_t origin_ns_;
  std::vector<Open> stack_;
  std::vector<Record> spans_;
  std::array<LayerStats, static_cast<std::size_t>(Layer::kCount)> stats_{};
};

/// RAII span; the tracer's enabled flag makes it free when tracing is off.
class Span {
 public:
  Span(Tracer& tracer, Layer layer, std::uint64_t participation = 0)
      : tracer_(tracer) {
    tracer_.begin(layer, participation);
  }
  ~Span() { tracer_.end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
};

}  // namespace fleetbench

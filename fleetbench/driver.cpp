#include "driver.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "fl/model_store.hpp"
#include "fl/secure_buffer.hpp"

namespace fleetbench {

namespace fl = papaya::fl;
namespace ml = papaya::ml;
namespace sim = papaya::sim;
namespace util = papaya::util;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

namespace {

/// The FedBuff task every workload serves; sizes are set per workload.
sim::SimulationConfig base_sim(std::uint64_t seed) {
  sim::SimulationConfig cfg;
  cfg.task.name = "fleet-lm";
  cfg.task.mode = fl::TrainingMode::kAsync;
  cfg.task.client_timeout_s = 240.0;
  cfg.task.max_staleness = 100;
  cfg.population.seed = seed;
  cfg.population.synthesis = sim::ProfileSynthesis::kKeyedLazy;
  cfg.corpus.vocab_size = 64;
  cfg.model.vocab_size = 64;
  cfg.model.embed_dim = 12;
  cfg.model.hidden_dim = 24;
  cfg.model.context = 2;
  cfg.model_kind = sim::ModelKind::kMlp;
  cfg.trainer.learning_rate = 0.3f;
  cfg.trainer.batch_size = 32;
  cfg.trainer.compute_losses = false;
  cfg.server_opt.lr = 0.05f;
  cfg.eval_set_size = 150;
  cfg.rng_streams = sim::RngStreamMode::kPerEntity;
  cfg.event_queue = sim::EventQueueBackend::kCalendar;
  cfg.record_participations = false;
  cfg.seed = seed;
  return cfg;
}

void set_model(sim::SimulationConfig& cfg, std::size_t vocab,
               std::size_t embed, std::size_t hidden) {
  cfg.corpus.vocab_size = vocab;
  cfg.model.vocab_size = vocab;
  cfg.model.embed_dim = embed;
  cfg.model.hidden_dim = hidden;
}

constexpr std::uint64_t kNeverEvaluate = std::numeric_limits<std::uint64_t>::max();

}  // namespace

WorkloadSpec make_workload(const std::string& name, std::uint64_t seed) {
  WorkloadSpec spec;
  spec.name = name;
  spec.sim = base_sim(seed);
  sim::SimulationConfig& cfg = spec.sim;
  if (name == "fleet-1m") {
    // The paper's scale regime: nearly every event is a rejected check-in.
    cfg.population.num_devices = 1'000'000;
    cfg.mean_checkin_interval_s = 60.0;
    cfg.task.concurrency = 200;
    cfg.task.aggregation_goal = 20;
    cfg.eval_every_steps = kNeverEvaluate;
    spec.run_steps = 60;
    spec.checkpoint_steps = 10;
    spec.trace_sample_period = 1024;
  } else if (name == "fedbuff-train" || name == "secagg-train") {
    // The simulated round through the real path; local SGD dominates.
    cfg.population.num_devices = 20'000;
    cfg.task.concurrency = 500;
    cfg.task.aggregation_goal = 50;
    cfg.task.aggregator_shards = 2;
    set_model(cfg, 128, 24, 64);
    cfg.eval_every_steps = 10;
    spec.run_steps = 40;
    spec.checkpoint_steps = 10;
    spec.trace_sample_period = 16;
    if (name == "secagg-train") {
      cfg.task.secagg_enabled = true;
      cfg.task.aggregation_batch_size = 16;
      spec.run_steps = 7;
      spec.checkpoint_steps = 3;
    }
  } else if (name == "server-ingest") {
    // The Sec. 6.3 server data path alone: ~1 MB updates, 16 chunks each.
    spec.event_loop = false;
    cfg.task.concurrency = 500;
    cfg.task.aggregation_goal = 50;
    cfg.task.aggregator_shards = 2;
    cfg.model.vocab_size = 1024;
    cfg.corpus.vocab_size = 1024;
    cfg.model.embed_dim = 96;
    cfg.model.hidden_dim = 128;
    spec.run_steps = 14;
    spec.checkpoint_steps = 5;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return spec;
}

namespace {

/// 64-bit FNV-1a over the bytes of a float vector.
std::uint64_t hash_floats(const std::vector<float>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size() * sizeof(float); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

std::unique_ptr<ml::LanguageModel> build_model(const sim::SimulationConfig& cfg) {
  // Same draw as FlSimulator's initial model.
  util::Rng init_rng(cfg.seed ^ 0x0de1ULL);
  return cfg.model_kind == sim::ModelKind::kLstm
             ? ml::make_lstm_lm(cfg.model, init_rng)
             : ml::make_mlp_lm(cfg.model, init_rng);
}

/// Driver-side replica of the server's step: the weighted mean of the
/// accepted deltas (weights from fl::update_weight) fed to its own
/// ml::ServerOptimizer, compared with the server model after each step.
class ServerMirror {
 public:
  ServerMirror(std::span<const float> initial, ml::ServerOptimizerConfig opt)
      : params_(initial.begin(), initial.end()),
        opt_(initial.size(), opt),
        lr_(opt.lr),
        tau_(opt.tau),
        sum_(initial.size(), 0.0) {}

  void add(std::span<const float> delta, double weight) {
    for (std::size_t i = 0; i < sum_.size(); ++i) sum_[i] += weight * delta[i];
    weight_sum_ += weight;
    ++count_;
  }

  /// Applies the mirrored step and returns the largest absolute difference
  /// to `server` beyond tolerance (0 when within).  `quantum` is the
  /// fixed-point resolution of one contribution (0 on plaintext).
  double step_and_compare(std::span<const float> server, double quantum) {
    std::vector<float> mean(sum_.size(), 0.0f);
    if (weight_sum_ > 0.0) {
      for (std::size_t i = 0; i < sum_.size(); ++i) {
        mean[i] = static_cast<float>(sum_[i] / weight_sum_);
      }
    }
    opt_.step(params_, mean);
    // Float fold order differs from the server's sharded fold; fixed point
    // adds up to half a quantum per contribution to the mean, which FedAdam
    // can amplify by at most lr / tau.
    const double mean_err =
        weight_sum_ > 0.0
            ? 0.5 * quantum * static_cast<double>(count_) / weight_sum_
            : 0.0;
    const double amplified = 2.0 * static_cast<double>(lr_) / tau_ * mean_err;
    double worst = 0.0;
    for (std::size_t i = 0; i < params_.size(); ++i) {
      const double diff = std::abs(static_cast<double>(server[i]) - params_[i]);
      const double tol = 1e-5 + 1e-4 * std::abs(static_cast<double>(server[i])) +
                         amplified;
      if (diff > tol) worst = std::max(worst, diff);
    }
    // Resync so float rounding cannot accumulate across steps.
    std::copy(server.begin(), server.end(), params_.begin());
    std::fill(sum_.begin(), sum_.end(), 0.0);
    weight_sum_ = 0.0;
    count_ = 0;
    return worst;
  }

 private:
  std::vector<float> params_;
  ml::ServerOptimizer opt_;
  float lr_;
  double tau_;
  std::vector<double> sum_;
  double weight_sum_ = 0.0;
  std::size_t count_ = 0;
};

/// Times the driver's own checks, which every timed figure excludes.
class CheckScope {
 public:
  CheckScope(Tracer& tracer, std::int64_t& total_ns)
      : tracer_(tracer), total_ns_(total_ns), start_(now_ns()) {
    tracer_.begin(Layer::kCheck);
  }
  ~CheckScope() {
    tracer_.end();
    total_ns_ += now_ns() - start_;
  }
  CheckScope(const CheckScope&) = delete;
  CheckScope& operator=(const CheckScope&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t& total_ns_;
  std::int64_t start_;
};

/// State every driver keeps for one run: the result, the clock, the checks.
class RunState {
 public:
  RunResult result;
  std::int64_t check_ns = 0;
  Tracer* tracer = nullptr;
  std::uint64_t stop_at_step = 0;
  std::int64_t start_ns = 0;

  void start(std::uint64_t steps, Tracer& t) {
    stop_at_step = steps;
    tracer = &t;
    start_ns = now_ns();
  }
  void finish() {
    result.timed_s = 1e-9 * static_cast<double>(now_ns() - start_ns - check_ns);
    result.check_s = 1e-9 * static_cast<double>(check_ns);
  }
  void expect(bool ok, const std::string& what) {
    ++result.ops_attempted;
    if (ok) return;
    ++result.ops_failed;
    if (result.failures.size() < 8) result.failures.push_back(what);
  }
  /// An operation the program refused or got wrong (outside the checks).
  void refused(const std::string& what) {
    ++result.ops_failed;
    if (result.failures.size() < 8) result.failures.push_back(what);
  }

  /// Untimed checks after a server step: stat conservation and the mirror.
  void check_step(const fl::TaskStats& stats, std::size_t goal,
                  ServerMirror& mirror, std::span<const float> server_model,
                  double quantum) {
    result.step_s.push_back(1e-9 *
                            static_cast<double>(now_ns() - start_ns - check_ns));
    CheckScope scope(*tracer, check_ns);
    expect(stats.updates_received ==
               stats.updates_applied + stats.updates_discarded,
           "updates_received != applied + discarded at step " +
               std::to_string(stats.server_steps));
    expect(stats.updates_applied == goal * stats.server_steps,
           "updates_applied != K x server_steps at step " +
               std::to_string(stats.server_steps));
    const double worst = mirror.step_and_compare(server_model, quantum);
    expect(worst == 0.0, "server model differs from the driver mirror by " +
                             std::to_string(worst) + " at step " +
                             std::to_string(stats.server_steps));
  }

  /// final_loss and the reproducibility hash: a measurement, not serving
  /// work, so untimed like the checks.
  void take_checkpoint(const std::vector<float>& model,
                       ml::LanguageModel& eval_model,
                       const std::vector<ml::Sequence>& eval_set) {
    CheckScope scope(*tracer, check_ns);
    std::copy(model.begin(), model.end(), eval_model.params().begin());
    result.checkpoint_reached = true;
    result.checkpoint_loss = eval_model.loss(eval_set, {});
    result.checkpoint_hash = hash_floats(model);
  }

  void check_bytes(const util::Bytes& sent, const util::Bytes& received) {
    CheckScope scope(*tracer, check_ns);
    expect(sent == received, "reassembled upload differs from the sent bytes");
  }
};

/// Frames an update the way a client uploads it: serialize, chunk, frame.
std::vector<util::Bytes> frame_upload(std::uint64_t session,
                                      const util::Bytes& serialized,
                                      std::size_t chunk_bytes) {
  const auto chunks = fl::chunk_upload(session, serialized, chunk_bytes);
  std::vector<util::Bytes> frames;
  frames.reserve(chunks.size());
  for (const auto& chunk : chunks) frames.push_back(chunk.serialize());
  return frames;
}

/// Server side of the upload: deserialize (CRC) + accept every frame, then
/// reassemble.
std::optional<util::Bytes> receive_upload(std::uint64_t session,
                                          const std::vector<util::Bytes>& frames) {
  fl::ChunkAssembler assembler(session);
  for (const auto& frame : frames) {
    assembler.accept(fl::UploadChunk::deserialize(frame));
  }
  return assembler.assemble();
}

// ---------------------------------------------------------------------------
// FleetDriver: the event-loop workloads
// ---------------------------------------------------------------------------

void advise_huge_pages(void* data, std::size_t bytes) {
#if defined(__linux__)
  constexpr std::uintptr_t kPage = 4096;
  const auto addr = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t lo = (addr + kPage - 1) & ~(kPage - 1);
  const std::uintptr_t hi = (addr + bytes) & ~(kPage - 1);
  if (hi > lo) (void)madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
#else
  (void)data;
  (void)bytes;
#endif
}

class FleetDriver final : public Driver {
 public:
  explicit FleetDriver(const WorkloadSpec& spec);
  RunResult run(std::uint64_t steps, Tracer& tracer) override;

 private:
  static constexpr std::uint32_t kNoParticipation = ~std::uint32_t{0};
  // Event kinds share FlSimulator's numbering.
  enum Event : sim::EventKind {
    kCheckIn = 1,
    kDropout = 2,
    kCompletion = 3,
    kReportTick = 5,
  };

  struct DeviceRecord {
    std::uint32_t part_slot = kNoParticipation;
    std::uint32_t generation = 0;
    std::uint32_t checkin_counter = 0;
    std::uint32_t avail_counter = 0;
  };
  struct Participation {
    std::vector<float> model_snapshot;
    std::uint64_t version_at_join = 0;
    double join_time = 0.0;
    double exec_time = 0.0;
    std::uint64_t id = 0;  ///< trace participation id
  };

  static void dispatch(void* ctx, sim::EventKind kind, std::uint32_t entity,
                       std::uint32_t payload, double now);
  void schedule(double delay, Event kind, std::size_t device,
                std::uint32_t generation = 0) {
    queue_.schedule_event_in(delay, 0, kind,
                             static_cast<std::uint32_t>(device), generation);
  }
  bool participating(std::size_t device) const {
    return devices_[device].part_slot != kNoParticipation;
  }
  Participation& participation(std::size_t device) {
    return pool_[devices_[device].part_slot];
  }
  fl::ClientRuntime& runtime_for(std::size_t device);
  fl::ClientRuntime* find_runtime(std::size_t device);
  fl::Aggregator* route_to_owner(std::uint64_t entity);

  void handle_check_in(std::size_t device, double now);
  void handle_completion(std::size_t device, std::uint32_t generation,
                         double now);
  void handle_dropout(std::size_t device, std::uint32_t generation, double now);
  void handle_report_tick(double now);
  void end_participation(std::size_t device);
  void after_step(fl::Aggregator& aggregator, const fl::ReportResult& report,
                  double now);
  double evaluate(const std::vector<float>& model);

  Tracer& tr() { return *run_.tracer; }
  const std::string& task() const { return cfg_.task.name; }

  WorkloadSpec spec_;
  sim::SimulationConfig& cfg_ = spec_.sim;
  sim::SimStreams streams_;
  sim::EventQueue queue_;
  std::unique_ptr<ml::FederatedCorpus> corpus_;
  std::unique_ptr<sim::DevicePopulation> population_;
  std::unique_ptr<sim::NetworkModel> network_;
  std::unique_ptr<fl::Executor> executor_;
  std::vector<ml::Sequence> eval_set_;
  std::unique_ptr<ml::LanguageModel> eval_model_;
  std::vector<std::unique_ptr<fl::Aggregator>> aggregators_;
  std::unique_ptr<fl::Coordinator> coordinator_;
  std::vector<std::unique_ptr<fl::Selector>> selectors_;
  std::unique_ptr<fl::ModelStore> model_store_;
  std::unique_ptr<ServerMirror> mirror_;

  std::vector<DeviceRecord> devices_;
  std::vector<std::uint64_t> has_runtime_;
  std::vector<Participation> pool_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<std::uint64_t, std::unique_ptr<fl::ClientRuntime>> runtimes_;

  std::uint64_t model_bytes_ = 0;
  std::uint64_t last_published_version_ = 0;
  std::uint64_t next_participation_id_ = 1;
  double secure_quantum_ = 0.0;  ///< fixed-point resolution under SecAgg
  bool stopped_ = false;
  RunState run_;
};

FleetDriver::FleetDriver(const WorkloadSpec& spec)
    : spec_(spec),
      streams_(spec_.sim.seed, spec_.sim.rng_streams,
               spec_.sim.population.num_devices),
      queue_(spec_.sim.event_queue) {
  queue_.set_dispatcher(&FleetDriver::dispatch, this);
  corpus_ = std::make_unique<ml::FederatedCorpus>(cfg_.corpus, cfg_.seed);
  population_ = std::make_unique<sim::DevicePopulation>(cfg_.population);
  network_ = std::make_unique<sim::NetworkModel>(cfg_.network);

  auto initial_model = build_model(cfg_);
  cfg_.task.model_size = initial_model->num_params();
  model_bytes_ = cfg_.task.model_size * sizeof(float);
  model_store_ = std::make_unique<fl::ModelStore>(cfg_.model_store);
  executor_ = std::make_unique<fl::Executor>(initial_model->clone(), cfg_.trainer);
  eval_model_ = initial_model->clone();
  eval_set_ = corpus_->global_test_set(cfg_.eval_set_size);
  mirror_ = std::make_unique<ServerMirror>(initial_model->params(),
                                           cfg_.server_opt);

  coordinator_ = std::make_unique<fl::Coordinator>(cfg_.seed);
  for (std::size_t i = 0; i < std::max<std::size_t>(1, cfg_.num_aggregators);
       ++i) {
    aggregators_.push_back(std::make_unique<fl::Aggregator>(
        "agg-" + std::to_string(i), /*num_threads=*/1));
    coordinator_->register_aggregator(*aggregators_.back(), 0.0);
  }
  std::vector<float> params(initial_model->params().begin(),
                            initial_model->params().end());
  coordinator_->submit_task(cfg_.task, std::move(params), cfg_.server_opt);
  for (std::size_t i = 0; i < std::max<std::size_t>(1, cfg_.num_selectors);
       ++i) {
    selectors_.push_back(std::make_unique<fl::Selector>("sel-" + std::to_string(i)));
    selectors_.back()->refresh(*coordinator_);
  }

  devices_.assign(population_->size(), DeviceRecord{});
  has_runtime_.assign((population_->size() + 63) / 64, 0);
  advise_huge_pages(devices_.data(), devices_.size() * sizeof(DeviceRecord));
  if (!devices_.empty()) {
    constexpr std::size_t kStride = sizeof(DeviceRecord) / sizeof(std::uint32_t);
    streams_.bind_dense_counters(sim::StreamPurpose::kCheckInBackoff,
                                 &devices_.front().checkin_counter, kStride);
    streams_.bind_dense_counters(sim::StreamPurpose::kAvailability,
                                 &devices_.front().avail_counter, kStride);
  }

  // Initial check-in schedule, staggered across one interval.
  for (std::size_t device = 0; device < population_->size(); ++device) {
    schedule(streams_.uniform(device, sim::StreamPurpose::kCheckInBackoff, 0.0,
                              cfg_.mean_checkin_interval_s),
             kCheckIn, device);
  }
  schedule(cfg_.report_interval_s, kReportTick, 0);
}

void FleetDriver::dispatch(void* ctx, sim::EventKind kind, std::uint32_t entity,
                           std::uint32_t payload, double now) {
  auto* self = static_cast<FleetDriver*>(ctx);
  if (self->stopped_) return;
  const auto device = static_cast<std::size_t>(entity);
  switch (kind) {
    case kCheckIn: {
      Span span(self->tr(), Layer::kCheckin);
      ++self->run_.result.checkins;
      self->handle_check_in(device, now);
      break;
    }
    case kDropout:
      self->handle_dropout(device, payload, now);
      break;
    case kCompletion:
      self->handle_completion(device, payload, now);
      break;
    case kReportTick: {
      Span span(self->tr(), Layer::kTick);
      self->handle_report_tick(now);
      break;
    }
    default:
      throw std::logic_error("FleetDriver: unknown event kind");
  }
}

fl::Aggregator* FleetDriver::route_to_owner(std::uint64_t entity) {
  fl::Selector& selector = *selectors_[streams_.uniform_int(
      entity, sim::StreamPurpose::kRouting, selectors_.size())];
  auto agg_id = selector.route(task());
  if (!agg_id) {
    fl::Selector& retry = *selectors_[streams_.uniform_int(
        entity, sim::StreamPurpose::kRouting, selectors_.size())];
    retry.refresh(*coordinator_);
    agg_id = retry.route(task());
  }
  if (!agg_id) return nullptr;
  for (auto& aggregator : aggregators_) {
    if (aggregator->id() == *agg_id && aggregator->has_task(task())) {
      return aggregator.get();
    }
  }
  return nullptr;
}

fl::ClientRuntime& FleetDriver::runtime_for(std::size_t device) {
  auto& slot = runtimes_[static_cast<std::uint64_t>(device)];
  if (!slot) {
    const sim::DeviceProfile profile = population_->profile(device);
    fl::ExampleStore store(
        corpus_->client_dataset(profile.id, profile.num_examples),
        /*max_retained_examples=*/10000);
    slot = std::make_unique<fl::ClientRuntime>(profile.id, std::move(store));
    has_runtime_[device >> 6] |= std::uint64_t{1} << (device & 63);
  }
  return *slot;
}

fl::ClientRuntime* FleetDriver::find_runtime(std::size_t device) {
  if ((has_runtime_[device >> 6] & (std::uint64_t{1} << (device & 63))) == 0) {
    return nullptr;
  }
  const auto it = runtimes_.find(static_cast<std::uint64_t>(device));
  return it == runtimes_.end() ? nullptr : it->second.get();
}

void FleetDriver::handle_check_in(std::size_t device, double now) {
  if (participating(device)) return;
  const double backoff =
      streams_.exponential(device, sim::StreamPurpose::kCheckInBackoff,
                           1.0 / cfg_.mean_checkin_interval_s);
  const bool idle = !streams_.bernoulli(
      device, sim::StreamPurpose::kAvailability, cfg_.device_unavailable_prob);
  if (fl::ClientRuntime* runtime = find_runtime(device)) {
    runtime->conditions().idle = idle;
    if (!runtime->check_in_allowed(cfg_.eligibility, now)) {
      schedule(backoff, kCheckIn, device);
      return;
    }
  } else if (!idle) {
    schedule(backoff, kCheckIn, device);
    return;
  }

  const sim::DeviceProfile profile = population_->profile(device);
  const fl::ClientCapabilities caps{profile.capabilities};
  std::optional<fl::ClientAssignment> assignment;
  {
    Span span(tr(), Layer::kSelection);
    assignment = coordinator_->assign_client(caps);
  }
  if (!assignment) {
    schedule(backoff, kCheckIn, device);
    return;
  }
  fl::Aggregator* aggregator;
  {
    Span span(tr(), Layer::kSelection);
    aggregator = route_to_owner(device);
  }
  if (aggregator == nullptr) {
    {
      Span span(tr(), Layer::kSelection);
      coordinator_->assignment_concluded(assignment->task);
    }
    schedule(backoff, kCheckIn, device);
    return;
  }
  fl::JoinResult join;
  {
    Span span(tr(), Layer::kSelection);
    join = aggregator->client_join(assignment->task, profile.id, now);
    coordinator_->assignment_concluded(assignment->task);
  }
  ++run_.result.join_calls;
  if (!join.accepted) {
    schedule(backoff, kCheckIn, device);
    return;
  }
  ++run_.result.joins_accepted;

  // Participation begins: the client downloads the model.
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  devices_[device].part_slot = slot;
  Participation& part = pool_[slot];
  ++devices_[device].generation;
  part.id = next_participation_id_++;
  tr().set_participation(part.id);
  part.version_at_join = join.model_version;
  part.join_time = now;
  {
    Span span(tr(), Layer::kDownload);
    const std::vector<float>& model = aggregator->model(assignment->task);
    part.model_snapshot.assign(model.begin(), model.end());
  }
  run_.result.download_bytes += model_bytes_;
  part.exec_time = streams_.with(device, sim::StreamPurpose::kExecTime,
                                 [&](auto& rng) {
                                   return population_->sample_exec_time(device, rng);
                                 });
  ++run_.result.participations;
  runtime_for(device).record_participation(now);

  const double download = streams_.with(
      device, sim::StreamPurpose::kDownloadJitter,
      [&](auto& rng) { return network_->download_time_s(model_bytes_, rng); });
  const std::uint32_t generation = devices_[device].generation;
  if (streams_.bernoulli(device, sim::StreamPurpose::kDropout,
                         profile.dropout_prob)) {
    const double when =
        download + streams_.uniform01(device, sim::StreamPurpose::kDropout) *
                       part.exec_time;
    schedule(when, kDropout, device, generation);
    return;
  }
  const double upload = streams_.with(
      device, sim::StreamPurpose::kUploadJitter,
      [&](auto& rng) { return network_->upload_time_s(model_bytes_, rng); });
  schedule(download + part.exec_time + upload, kCompletion, device, generation);
}

void FleetDriver::end_participation(std::size_t device) {
  if (!participating(device)) return;
  ++devices_[device].generation;
  const std::uint32_t slot = devices_[device].part_slot;
  pool_[slot].model_snapshot.clear();
  devices_[device].part_slot = kNoParticipation;
  free_slots_.push_back(slot);
  if (!stopped_) {
    schedule(streams_.exponential(device, sim::StreamPurpose::kCheckInBackoff,
                                  1.0 / cfg_.mean_checkin_interval_s),
             kCheckIn, device);
  }
}

void FleetDriver::handle_dropout(std::size_t device, std::uint32_t generation,
                                 double now) {
  if (!participating(device) || devices_[device].generation != generation) return;
  Span span(tr(), Layer::kParticipation, participation(device).id);
  const sim::DeviceProfile profile = population_->profile(device);
  fl::Aggregator* owner;
  {
    Span sel(tr(), Layer::kSelection);
    owner = route_to_owner(device);
    if (owner != nullptr) owner->client_failed(task(), profile.id, now);
  }
  ++run_.result.dropouts;
  end_participation(device);
}

double FleetDriver::evaluate(const std::vector<float>& model) {
  Span span(tr(), Layer::kEval);
  std::copy(model.begin(), model.end(), eval_model_->params().begin());
  return eval_model_->loss(eval_set_, {});
}

void FleetDriver::handle_completion(std::size_t device, std::uint32_t generation,
                                    double now) {
  if (!participating(device) || devices_[device].generation != generation) return;
  Participation& part = participation(device);
  Span span(tr(), Layer::kParticipation, part.id);
  const sim::DeviceProfile profile = population_->profile(device);
  fl::ClientRuntime& runtime = runtime_for(device);
  RunResult& res = run_.result;

  util::Rng train_rng(streams_.training_seed(
      profile.id, static_cast<std::uint64_t>(devices_[device].generation)));
  fl::LocalTrainingResult training;
  {
    Span train(tr(), Layer::kTrain);
    training = executor_->train(part.model_snapshot, part.version_at_join,
                                profile.id, runtime.store(), train_rng);
  }
  res.examples_trained += training.update.num_examples * cfg_.trainer.epochs;

  fl::Aggregator* owner;
  {
    Span sel(tr(), Layer::kSelection);
    owner = route_to_owner(device);
  }
  if (owner == nullptr) {
    end_participation(device);
    return;
  }
  fl::Aggregator& aggregator = *owner;
  const std::uint64_t version_before = aggregator.model_version(task());
  fl::ReportResult report;
  double weight = 0.0;
  const char* refusal = nullptr;
  ++res.ops_attempted;
  if (cfg_.task.secagg_enabled) {
    std::optional<fl::SecureUploadConfig> upload;
    {
      Span s(tr(), Layer::kSecConfig);
      upload = aggregator.secure_upload_config(task());
    }
    std::optional<fl::SecureReport> secure_report;
    if (upload) {
      secure_quantum_ = 1.0 / upload->fixed_point.scale;
      Span s(tr(), Layer::kSecPrepare);
      secure_report = fl::SecureBufferManager::prepare_report(
          aggregator.secure_platform(task()), *upload, profile.id,
          part.version_at_join, training.update.num_examples,
          aggregator.secure_update_weight(task(), training.update.num_examples),
          training.update.delta, cfg_.seed ^ profile.id);
    }
    if (secure_report) {
      const std::int64_t t0 = now_ns();
      tr().begin(Layer::kSecBuffer);
      report = aggregator.client_report_secure(task(), *secure_report, now);
      // Batched SecAgg flushes on every aggregation_batch_size-th
      // contribution buffered in an epoch; the goal-completing one steps.
      const fl::TaskStats& st = aggregator.stats(task());
      const std::uint64_t buffered =
          st.updates_received - st.updates_discarded - st.updates_applied;
      const bool flushed = report.outcome == fl::ReportOutcome::kAccepted &&
                           !report.server_stepped && buffered > 0 &&
                           buffered % cfg_.task.aggregation_batch_size == 0;
      tr().end_as(report.server_stepped ? Layer::kSecStep
                  : flushed             ? Layer::kSecFlush
                                        : Layer::kSecBuffer);
      res.report_ns.push_back(now_ns() - t0);
      weight = fl::update_weight(training.update.num_examples, 0);
    } else {
      aggregator.client_failed(task(), profile.id, now);
      report.outcome = fl::ReportOutcome::kRejectedUnknown;
      refusal = upload ? "secure report preparation failed"
                       : "secure upload config refused (epoch exhausted)";
    }
  } else {
    const std::uint64_t session =
        profile.id ^ static_cast<std::uint64_t>(devices_[device].generation);
    util::Bytes serialized;
    std::vector<util::Bytes> frames;
    {
      Span s(tr(), Layer::kUploadClient);
      serialized = training.update.serialize();
      frames = frame_upload(session, serialized, cfg_.upload_chunk_bytes);
    }
    for (const auto& f : frames) res.upload_bytes += f.size();
    res.upload_chunks += frames.size();
    const std::int64_t t0 = now_ns();
    std::optional<util::Bytes> reassembled;
    {
      Span s(tr(), Layer::kUploadServer);
      reassembled = receive_upload(session, frames);
    }
    if (!reassembled) {
      res.report_ns.push_back(now_ns() - t0);
      ++res.upload_failed;
      aggregator.client_failed(task(), profile.id, now);
      report.outcome = fl::ReportOutcome::kRejectedUnknown;
      refusal = "upload reassembly failed";
    } else {
      tr().begin(Layer::kAggReport);
      report = aggregator.client_report(task(), *reassembled, now);
      tr().end_as(report.server_stepped ? Layer::kAggStep : Layer::kAggReport);
      res.report_ns.push_back(now_ns() - t0);
      run_.check_bytes(serialized, *reassembled);
    }
    weight = fl::update_weight(training.update.num_examples,
                               version_before - part.version_at_join);
  }

  if (report.outcome == fl::ReportOutcome::kAccepted) {
    res.applied_staleness.push_back(aggregator.model_version(task()) -
                                    part.version_at_join);
    CheckScope scope(tr(), run_.check_ns);
    mirror_->add(training.update.delta, weight);
  } else if (report.outcome == fl::ReportOutcome::kRejectedUnknown) {
    // The participation is live, so the server knows this client.
    run_.refused(refusal != nullptr ? refusal
                                    : "live client's upload rejected as unknown");
  }
  end_participation(device);
  if (report.server_stepped) after_step(aggregator, report, now);
}

void FleetDriver::after_step(fl::Aggregator& aggregator,
                             const fl::ReportResult& report, double now) {
  const std::uint64_t version = aggregator.model_version(task());
  if (version > last_published_version_) {
    Span span(tr(), Layer::kModelStore);
    (void)model_store_->publish(version, model_bytes_, now);
    last_published_version_ = version;
  }
  for (const std::uint64_t client_id : report.aborted_clients) {
    const auto device = static_cast<std::size_t>(client_id);
    if (device < devices_.size()) end_participation(device);
  }
  const fl::TaskStats& stats = aggregator.stats(task());
  run_.check_step(stats, cfg_.task.aggregation_goal, *mirror_,
                  aggregator.model(task()), secure_quantum_);

  // Periodic evaluation, routed like FlSimulator::maybe_evaluate.
  {
    fl::Aggregator* owner;
    {
      Span sel(tr(), Layer::kSelection);
      owner = route_to_owner(sim::SimStreams::kServerEntity);
    }
    if (owner != nullptr && (cfg_.eval_every_steps <= 1 ||
                             stats.server_steps % cfg_.eval_every_steps == 0)) {
      (void)evaluate(owner->model(task()));
    }
  }
  if (stats.server_steps == spec_.checkpoint_steps) {
    run_.take_checkpoint(aggregator.model(task()), *eval_model_, eval_set_);
  }
  if (stats.server_steps >= run_.stop_at_step) stopped_ = true;
}

void FleetDriver::handle_report_tick(double now) {
  for (auto& aggregator : aggregators_) {
    if (!aggregator->has_task(task())) {
      Span sel(tr(), Layer::kSelection);
      coordinator_->aggregator_report(aggregator->id(),
                                      aggregator->next_report_sequence(), now, {});
      continue;
    }
    std::vector<std::uint64_t> expired;
    {
      Span span(tr(), Layer::kSweep);
      expired = aggregator->expire_timeouts(task(), now);
    }
    for (const std::uint64_t client_id : expired) {
      const auto device = static_cast<std::size_t>(client_id);
      if (device < devices_.size() && participating(device)) {
        ++run_.result.expired;
        end_participation(device);
      }
    }
    Span sel(tr(), Layer::kSelection);
    std::vector<fl::TaskReport> reports;
    for (const auto& t : aggregator->task_names()) {
      reports.push_back({t, aggregator->client_demand(t), aggregator->model_version(t)});
    }
    coordinator_->aggregator_report(aggregator->id(),
                                    aggregator->next_report_sequence(), now,
                                    reports);
  }
  {
    Span sel(tr(), Layer::kSelection);
    for (auto& selector : selectors_) selector->refresh(*coordinator_);
  }
  schedule(cfg_.report_interval_s, kReportTick, 0);
}

RunResult FleetDriver::run(std::uint64_t steps, Tracer& tracer) {
  run_.start(steps, tracer);
  const std::uint64_t events_before = queue_.events_processed();
  {
    Span span(tracer, Layer::kEventQueue);
    queue_.run_until(cfg_.max_sim_time_s, [this] { return stopped_; });
  }
  run_.finish();
  RunResult& res = run_.result;
  res.events = queue_.events_processed() - events_before;
  fl::Aggregator* owner = nullptr;
  for (auto& a : aggregators_) {
    if (a->has_task(task())) owner = a.get();
  }
  if (owner == nullptr) throw std::logic_error("FleetDriver: task has no owner");
  res.task = owner->stats(task());
  res.model_store = model_store_->stats();
  std::copy(owner->model(task()).begin(), owner->model(task()).end(),
            eval_model_->params().begin());
  res.final_loss = eval_model_->loss(eval_set_, {});
  return std::move(res);
}

// ---------------------------------------------------------------------------
// IngestDriver: server-ingest
// ---------------------------------------------------------------------------

/// Seed-generated deltas the clients report, drawn from N(0, sigma).
constexpr std::size_t kIngestPool = 8;
constexpr double kIngestDeltaSigma = 0.01;

class IngestDriver final : public Driver {
 public:
  explicit IngestDriver(const WorkloadSpec& spec);
  RunResult run(std::uint64_t steps, Tracer& tracer) override;

 private:
  struct Client {
    std::uint64_t id = 0;
    std::uint64_t version = 0;
    std::size_t num_examples = 0;
    std::size_t pool_index = 0;
  };

  void join_client(double now);
  void drop_clients(const std::vector<std::uint64_t>& ids);
  Tracer& tr() { return *run_.tracer; }
  const std::string& task() const { return cfg_.task.name; }

  WorkloadSpec spec_;
  sim::SimulationConfig& cfg_ = spec_.sim;
  std::unique_ptr<fl::Aggregator> aggregator_;
  std::unique_ptr<fl::ModelStore> model_store_;
  std::unique_ptr<ml::LanguageModel> eval_model_;
  std::vector<ml::Sequence> eval_set_;
  std::unique_ptr<ServerMirror> mirror_;
  std::vector<fl::ModelUpdate> pool_;
  std::vector<Client> active_;
  std::unordered_map<std::uint64_t, std::size_t> slot_of_;
  std::vector<float> download_buffer_;
  util::Rng rng_;
  std::uint64_t next_client_ = 1;
  std::uint64_t model_bytes_ = 0;
  RunState run_;
  Tracer setup_tracer_{false};
};

IngestDriver::IngestDriver(const WorkloadSpec& spec)
    : spec_(spec), rng_(spec.sim.seed ^ 0x1a6e57ULL) {
  auto model = build_model(cfg_);
  cfg_.task.model_size = model->num_params();
  model_bytes_ = cfg_.task.model_size * sizeof(float);
  aggregator_ = std::make_unique<fl::Aggregator>("agg-0", /*num_threads=*/1);
  aggregator_->assign_task(
      cfg_.task, std::vector<float>(model->params().begin(), model->params().end()),
      cfg_.server_opt);
  model_store_ = std::make_unique<fl::ModelStore>(cfg_.model_store);
  eval_set_ = ml::FederatedCorpus(cfg_.corpus, cfg_.seed)
                  .global_test_set(cfg_.eval_set_size);
  mirror_ = std::make_unique<ServerMirror>(model->params(), cfg_.server_opt);
  eval_model_ = std::move(model);

  util::Rng pool_rng(cfg_.seed ^ 0x9001ULL);
  pool_.resize(kIngestPool);
  for (auto& update : pool_) {
    update.delta.resize(cfg_.task.model_size);
    for (auto& v : update.delta) {
      v = static_cast<float>(pool_rng.normal(0.0, kIngestDeltaSigma));
    }
  }
  download_buffer_.reserve(cfg_.task.model_size);
  run_.tracer = &setup_tracer_;
  while (active_.size() < cfg_.task.concurrency) join_client(0.0);
}

void IngestDriver::join_client(double now) {
  Client c;
  c.id = next_client_++;
  c.num_examples = 4 + rng_.uniform_int(61);
  c.pool_index = rng_.uniform_int(pool_.size());
  fl::JoinResult join;
  {
    Span span(tr(), Layer::kSelection);
    join = aggregator_->client_join(task(), c.id, now);
  }
  ++run_.result.join_calls;
  if (!join.accepted) {
    run_.refused("client_join refused below concurrency");
    return;
  }
  ++run_.result.joins_accepted;
  c.version = join.model_version;
  {
    Span span(tr(), Layer::kDownload);
    const std::vector<float>& model = aggregator_->model(task());
    download_buffer_.assign(model.begin(), model.end());
  }
  run_.result.download_bytes += model_bytes_;
  slot_of_[c.id] = active_.size();
  active_.push_back(c);
}

void IngestDriver::drop_clients(const std::vector<std::uint64_t>& ids) {
  for (const std::uint64_t id : ids) {
    const auto it = slot_of_.find(id);
    if (it == slot_of_.end()) continue;
    const std::size_t slot = it->second;
    slot_of_.erase(it);
    if (slot + 1 != active_.size()) {
      active_[slot] = active_.back();
      slot_of_[active_[slot].id] = slot;
    }
    active_.pop_back();
  }
}

RunResult IngestDriver::run(std::uint64_t steps, Tracer& tracer) {
  run_.start(steps, tracer);
  RunResult& res = run_.result;
  constexpr double kReportSpacingS = 0.01;
  constexpr std::uint64_t kSweepEvery = 64;
  double now = 0.0;
  std::uint64_t reports = 0;
  bool stop = false;
  while (!stop) {
    now += kReportSpacingS;
    const Client c = active_[rng_.uniform_int(active_.size())];
    fl::ModelUpdate& update = pool_[c.pool_index];
    update.client_id = c.id;
    update.initial_version = c.version;
    update.num_examples = c.num_examples;
    const std::uint64_t version_before = aggregator_->model_version(task());

    ++res.ops_attempted;
    util::Bytes serialized;
    std::vector<util::Bytes> frames;
    {
      Span span(tr(), Layer::kUploadClient, c.id);
      serialized = update.serialize();
      frames = frame_upload(c.id, serialized, cfg_.upload_chunk_bytes);
    }
    for (const auto& f : frames) res.upload_bytes += f.size();
    res.upload_chunks += frames.size();
    const std::int64_t t0 = now_ns();
    std::optional<util::Bytes> reassembled;
    {
      Span span(tr(), Layer::kUploadServer, c.id);
      reassembled = receive_upload(c.id, frames);
    }
    fl::ReportResult report;
    if (!reassembled) {
      res.report_ns.push_back(now_ns() - t0);
      ++res.upload_failed;
      aggregator_->client_failed(task(), c.id, now);
      run_.refused("upload reassembly failed");
    } else {
      tr().begin(Layer::kAggReport, c.id);
      report = aggregator_->client_report(task(), *reassembled, now);
      tr().end_as(report.server_stepped ? Layer::kAggStep : Layer::kAggReport);
      res.report_ns.push_back(now_ns() - t0);
      run_.check_bytes(serialized, *reassembled);
      if (report.outcome == fl::ReportOutcome::kAccepted) {
        res.applied_staleness.push_back(aggregator_->model_version(task()) -
                                        c.version);
        CheckScope scope(tr(), run_.check_ns);
        mirror_->add(update.delta,
                     fl::update_weight(c.num_examples, version_before - c.version));
      } else if (report.outcome == fl::ReportOutcome::kRejectedUnknown) {
        run_.refused("joined client's upload rejected as unknown");
      }
    }
    drop_clients({c.id});
    ++reports;

    if (report.server_stepped) {
      const std::uint64_t version = aggregator_->model_version(task());
      {
        Span span(tr(), Layer::kModelStore);
        (void)model_store_->publish(version, model_bytes_, now);
      }
      drop_clients(report.aborted_clients);
      const fl::TaskStats& stats = aggregator_->stats(task());
      run_.check_step(stats, cfg_.task.aggregation_goal, *mirror_,
                      aggregator_->model(task()), 0.0);
      if (stats.server_steps == spec_.checkpoint_steps) {
        run_.take_checkpoint(aggregator_->model(task()), *eval_model_, eval_set_);
      }
      if (stats.server_steps >= steps) stop = true;
    }
    if (reports % kSweepEvery == 0) {
      std::vector<std::uint64_t> expired;
      {
        Span span(tr(), Layer::kSweep);
        expired = aggregator_->expire_timeouts(task(), now);
      }
      res.expired += expired.size();
      drop_clients(expired);
    }
    while (active_.size() < cfg_.task.concurrency) join_client(now);
  }
  run_.finish();
  res.task = aggregator_->stats(task());
  res.model_store = model_store_->stats();
  res.final_loss = res.checkpoint_loss;
  return std::move(res);
}

}  // namespace

std::unique_ptr<Driver> make_driver(const WorkloadSpec& spec) {
  if (spec.event_loop) return std::make_unique<FleetDriver>(spec);
  return std::make_unique<IngestDriver>(spec);
}

}  // namespace fleetbench

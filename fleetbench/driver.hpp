#pragma once
// Single-threaded fleet driver: plays a device population against the real
// papaya server stack through public calls only, timing every call into a
// layer from outside (trace.hpp).
//
// Two drivers share one interface:
//  - FleetDriver (fleet-1m, fedbuff-train, secagg-train) owns the event
//    loop.  Per participation it makes the same calls, in the same order and
//    with the same keyed random streams, as FlSimulator::handle_check_in /
//    handle_completion; fidelity_test.cpp holds it to FlSimulator::run().
//  - IngestDriver (server-ingest) has no event loop and no training: it keeps
//    a fixed set of clients joined and reports seed-generated deltas in
//    seed-random order through serialize -> chunk -> reassemble -> report.
//
// Aggregators run one worker per shard (as in FlSimulator), so trajectories
// are reproducible from the seed; the driver thread issues every call.
//
// Output checks run inline but untimed (Layer::kCheck): task-stat
// conservation at every server step, byte-equality of every reassembled
// upload, and the server model against a driver-side mirror (the driver's
// own weighted mean via fl::update_weight plus ml::ServerOptimizer).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/fl_simulator.hpp"
#include "trace.hpp"

namespace fleetbench {

struct WorkloadSpec {
  std::string name;
  /// Event-loop workloads run the fleet; server-ingest does not.
  bool event_loop = true;
  /// Fleet, task, corpus and model (server-ingest uses task, corpus, model,
  /// server optimizer and seed only).
  papaya::sim::SimulationConfig sim;
  /// A timed pass runs from set-up to this server step: a fixed amount of
  /// work, identical for every pass from the same seed.
  std::uint64_t run_steps = 40;
  /// Server step at which final_loss and the model hash are taken.
  std::uint64_t checkpoint_steps = 10;
  /// Keep span records for one handler-level span in this many.
  std::uint32_t trace_sample_period = 1;
};

/// Workload names: fleet-1m, fedbuff-train, secagg-train, server-ingest.
/// Throws std::invalid_argument for any other name.
WorkloadSpec make_workload(const std::string& name, std::uint64_t seed);

struct RunResult {
  // Timing (checks excluded).
  double timed_s = 0.0;
  double check_s = 0.0;                 ///< untimed output checks
  std::vector<std::int64_t> report_ns;  ///< server-side time per upload
  std::vector<double> step_s;  ///< timed seconds at each server step

  // Task outcome.
  papaya::fl::TaskStats task;
  std::uint64_t participations = 0;
  std::uint64_t dropouts = 0;
  std::uint64_t expired = 0;
  std::vector<std::uint64_t> applied_staleness;
  double final_loss = 0.0;  ///< eval loss when the run stopped

  // Checkpoint (server step WorkloadSpec::checkpoint_steps).
  bool checkpoint_reached = false;
  double checkpoint_loss = 0.0;
  std::uint64_t checkpoint_hash = 0;

  // Correctness.
  std::uint64_t ops_attempted = 0;  ///< uploads attempted + checks run
  std::uint64_t ops_failed = 0;     ///< refused honest uploads + failed checks
  std::vector<std::string> failures;  ///< first few messages

  // Layer counters (recorded whether or not tracing is on).
  std::uint64_t events = 0;
  std::uint64_t checkins = 0;
  std::uint64_t join_calls = 0;
  std::uint64_t joins_accepted = 0;
  std::uint64_t download_bytes = 0;
  std::uint64_t examples_trained = 0;
  std::uint64_t upload_bytes = 0;
  std::uint64_t upload_chunks = 0;
  std::uint64_t upload_failed = 0;
  papaya::fl::ModelStore::Stats model_store;
};

class Driver {
 public:
  Driver() = default;
  virtual ~Driver() = default;
  // The event queue holds the driver's address.
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;
  /// Runs until the server has taken `steps` steps.  One call per driver.
  virtual RunResult run(std::uint64_t steps, Tracer& tracer) = 0;
};

/// Builds every input from the spec's seed: population, corpus, initial
/// model, initial check-in schedule, first TSA epoch, update pool.  The
/// wall time of this call is the benchmark's set-up time.
std::unique_ptr<Driver> make_driver(const WorkloadSpec& spec);

}  // namespace fleetbench

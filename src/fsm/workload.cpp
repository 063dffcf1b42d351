#include "fsm/workload.hpp"

#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "fsm/scenario.hpp"
#include "sim/streams.hpp"

namespace papaya::fsm {

void InvariantCollector::fail(std::string workload, std::uint64_t actor,
                              std::uint64_t step, std::string message) {
  util::LockGuard lock(mutex_);
  failures_.push_back(
      {std::move(workload), actor, step, std::move(message)});
  any_.store(true, std::memory_order_release);
}

std::vector<InvariantFailure> InvariantCollector::failures() const {
  util::LockGuard lock(mutex_);
  return failures_;
}

bool StepContext::partitioned(std::size_t node) const {
  return scenario != nullptr && scenario->partitioned(node, step);
}

bool StepContext::byzantine() {
  return scenario != nullptr &&
         scenario->byzantine(actor, step, *scenario_rng);
}

void StepContext::check(bool ok, const std::string& message) {
  if (ok) return;
  invariants->fail(workload, actor, step, message);
}

std::string HarnessResult::repro_line() const {
  std::ostringstream out;
  out << "repro: ./fsm_workload_test --seed=" << options.seed
      << " --steps=" << options.steps << " --workload=" << workload;
  return out.str();
}

std::string HarnessResult::summary() const {
  std::ostringstream out;
  if (ok()) {
    out << workload << ": ok (" << steps_run << " steps/actor)";
    return out.str();
  }
  const std::size_t shown = failures.size() < 8 ? failures.size() : 8;
  for (std::size_t i = 0; i < shown; ++i) {
    const InvariantFailure& f = failures[i];
    out << "invariant failed [" << f.workload << " actor=" << f.actor
        << " step=" << f.step << "]: " << f.message << "\n";
  }
  if (failures.size() > shown) {
    out << "... " << (failures.size() - shown) << " more\n";
  }
  out << repro_line() << "\n";
  out << "   (env form: PAPAYA_FSM_SEED=" << options.seed
      << " PAPAYA_FSM_STEPS=" << options.steps << " PAPAYA_FSM_WORKLOAD="
      << workload << " ctest -R fsm_workload)";
  return out.str();
}

namespace {

/// A state resolved against the table: transitions as (cumulative weight,
/// target index) so one uniform draw picks a successor.
struct CompiledState {
  const StateDef* def = nullptr;
  std::vector<std::pair<double, std::size_t>> cumulative;
  double total_weight = 0.0;
};

constexpr std::uint32_t kIdle = ~0U;

}  // namespace

HarnessResult run_workload(Workload& workload, const HarnessOptions& options) {
  const NullScenario null_scenario;
  const Scenario* scenario =
      options.scenario != nullptr ? options.scenario : &null_scenario;
  const std::string workload_name = workload.name();

  // Compile and validate the state table up front: a malformed table is a
  // programmer error, not a run outcome.
  std::vector<StateDef> defs = workload.states();
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (!index.emplace(defs[i].name, i).second) {
      throw std::invalid_argument("fsm: duplicate state '" + defs[i].name +
                                  "' in workload " + workload_name);
    }
  }
  std::vector<CompiledState> states(defs.size());
  for (std::size_t i = 0; i < defs.size(); ++i) {
    CompiledState& cs = states[i];
    cs.def = &defs[i];
    for (const auto& [target, weight] : defs[i].transitions) {
      const auto it = index.find(target);
      if (it == index.end()) {
        throw std::invalid_argument("fsm: state '" + defs[i].name +
                                    "' transitions to unknown state '" +
                                    target + "'");
      }
      if (weight <= 0.0) {
        throw std::invalid_argument("fsm: non-positive transition weight in '" +
                                    defs[i].name + "'");
      }
      cs.total_weight += weight;
      cs.cumulative.emplace_back(cs.total_weight, it->second);
    }
    if (cs.cumulative.empty()) {
      throw std::invalid_argument("fsm: state '" + defs[i].name +
                                  "' has no transitions");
    }
  }
  const auto initial_it = index.find(workload.initial_state());
  if (initial_it == index.end()) {
    throw std::invalid_argument("fsm: unknown initial state '" +
                                workload.initial_state() + "'");
  }

  const std::size_t actors = options.actors == 0 ? 1 : options.actors;
  const std::size_t threads =
      options.threads == 0 ? actors : std::min(options.threads, actors);
  const std::uint64_t quiesce_every =
      options.quiesce_every == 0 ? options.steps : options.quiesce_every;

  // Per-actor streams through the sim stream hierarchy.  SimStreams::stream
  // lazily inserts into an unordered_map and is NOT thread-safe, so every
  // stream is materialized here, single-threaded, before any actor thread
  // starts; the references stay stable because no further inserts happen.
  sim::SimStreams streams(options.seed);
  struct ActorState {
    std::size_t state = 0;
    util::StreamRng* action = nullptr;
    util::StreamRng* payload = nullptr;
    util::StreamRng* scenario_rng = nullptr;
    std::vector<std::uint32_t> log;
  };
  std::vector<ActorState> actor_states(actors);
  for (std::size_t a = 0; a < actors; ++a) {
    ActorState& as = actor_states[a];
    as.state = initial_it->second;
    as.action = &streams.stream(a, sim::StreamPurpose::kFsmAction);
    as.payload = &streams.stream(a, sim::StreamPurpose::kFsmPayload);
    as.scenario_rng = &streams.stream(a, sim::StreamPurpose::kFsmScenario);
    as.log.reserve(options.steps);
  }

  InvariantCollector collector;
  std::atomic<bool> abort{false};

  const auto run_one_step = [&](std::size_t actor, std::uint64_t step) {
    ActorState& as = actor_states[actor];
    scenario->perturb(actor, step);
    if (!scenario->available(actor, step, *as.scenario_rng)) {
      as.log.push_back(kIdle);
      return;
    }
    // The transition choice comes from the dedicated action stream — one
    // uniform draw, a pure function of (seed, actor, step trajectory) — so
    // the step log cannot depend on interleaving.
    const CompiledState& cur = states[as.state];
    const double u = as.action->uniform() * cur.total_weight;
    std::size_t next = cur.cumulative.back().second;
    for (const auto& [cum, target] : cur.cumulative) {
      if (u < cum) {
        next = target;
        break;
      }
    }
    as.state = next;
    StepContext ctx;
    ctx.actor = actor;
    ctx.step = step;
    ctx.payload_rng = as.payload;
    ctx.scenario_rng = as.scenario_rng;
    ctx.scenario = scenario;
    ctx.invariants = &collector;
    ctx.workload = workload_name;
    try {
      states[next].def->action(ctx);
      workload.check_step(ctx);
    } catch (const std::exception& e) {
      ctx.check(false, "unhandled exception in state '" +
                           states[next].def->name + "': " + e.what());
    }
    as.log.push_back(static_cast<std::uint32_t>(next));
    if (collector.any_failure()) abort.store(true, std::memory_order_relaxed);
  };

  std::uint64_t completed = 0;
  while (completed < options.steps && !abort.load(std::memory_order_relaxed)) {
    const std::uint64_t segment_end =
        std::min(options.steps, completed + quiesce_every);
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (std::uint64_t step = completed; step < segment_end; ++step) {
          if (abort.load(std::memory_order_relaxed)) return;
          for (std::size_t actor = t; actor < actors; actor += threads) {
            run_one_step(actor, step);
          }
        }
      });
    }
    for (auto& th : pool) th.join();
    if (!abort.load(std::memory_order_relaxed)) {
      completed = segment_end;
      workload.check_quiesce(completed, collector);
      if (collector.any_failure()) abort.store(true, std::memory_order_relaxed);
    }
  }

  HarnessResult result;
  result.workload = workload_name;
  result.options = options;
  result.steps_run = completed;
  result.failures = collector.failures();

  std::ostringstream log;
  log << "fsm-log workload=" << workload_name << " seed=" << options.seed
      << " actors=" << actors << " steps=" << options.steps
      << " quiesce=" << quiesce_every << " scenario=" << scenario->name()
      << "\n";
  for (std::size_t a = 0; a < actors; ++a) {
    log << "actor " << a << ":";
    for (const std::uint32_t entry : actor_states[a].log) {
      log << " " << (entry == kIdle ? "-" : states[entry].def->name);
    }
    log << "\n";
  }
  result.step_log = log.str();

  if (!result.ok()) {
    // Satellite requirement: any invariant failure prints a one-line repro
    // command, so a CI log replays locally first try.
    std::cerr << result.summary() << std::endl;
  }
  return result;
}

}  // namespace papaya::fsm

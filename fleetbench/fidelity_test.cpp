// Fidelity test: the fleet driver must not drift from the program every
// figure bench runs.  On a reduced fedbuff-train config, over five seeds,
// the driver and FlSimulator::run() must agree on the applied/received
// ratio, staleness p50 and p95 of applied updates, and the final eval loss,
// each within the spread of FlSimulator's own values across the seeds.
//
// Exit status 0 when every figure agrees; the table shows per-seed values
// (the two usually agree exactly, since the driver replays FlSimulator's
// calls and keyed streams).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "driver.hpp"

namespace {

using namespace fleetbench;
namespace sim = papaya::sim;

constexpr std::uint64_t kSteps = 20;
constexpr int kSeeds = 5;

struct Figures {
  double useful_ratio = 0.0;
  double stale_p50 = 0.0;
  double stale_p95 = 0.0;
  double final_loss = 0.0;
};

double percentile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::clamp<std::size_t>(rank, 1, v.size()) - 1]);
}

WorkloadSpec reduced_spec(std::uint64_t seed) {
  WorkloadSpec spec = make_workload("fedbuff-train", seed);
  spec.sim.population.num_devices = 2000;
  spec.sim.task.concurrency = 100;
  spec.sim.task.aggregation_goal = 10;
  spec.sim.eval_every_steps = 5;
  return spec;
}

Figures run_simulator(const WorkloadSpec& spec) {
  sim::SimulationConfig cfg = spec.sim;
  cfg.max_server_steps = kSteps;
  cfg.record_participations = true;
  sim::FlSimulator simulator(cfg);
  const sim::SimulationResult r = simulator.run();
  std::vector<std::uint64_t> staleness;
  for (const auto& rec : r.participations) {
    if (rec.update_applied) staleness.push_back(rec.staleness);
  }
  return {static_cast<double>(r.task_stats.updates_applied) /
              static_cast<double>(r.task_stats.updates_received),
          percentile(staleness, 0.50), percentile(staleness, 0.95),
          r.final_eval_loss};
}

Figures run_driver(const WorkloadSpec& spec, bool& correct) {
  auto driver = make_driver(spec);
  Tracer off(false);
  const RunResult r = driver->run(kSteps, off);
  correct = r.ops_failed == 0;
  for (const auto& f : r.failures) std::printf("driver check failed: %s\n", f.c_str());
  return {static_cast<double>(r.task.updates_applied) /
              static_cast<double>(r.task.updates_received),
          percentile(r.applied_staleness, 0.50),
          percentile(r.applied_staleness, 0.95), r.final_loss};
}

}  // namespace

int main() {
  std::vector<Figures> simulated, driven;
  bool all_correct = true;
  std::printf("%-5s %-10s %12s %10s %10s %12s\n", "seed", "source",
              "useful", "stale_p50", "stale_p95", "final_loss");
  for (int seed = 1; seed <= kSeeds; ++seed) {
    const WorkloadSpec spec = reduced_spec(static_cast<std::uint64_t>(seed));
    bool correct = true;
    simulated.push_back(run_simulator(spec));
    driven.push_back(run_driver(spec, correct));
    all_correct = all_correct && correct;
    for (const auto& [name, f] :
         {std::pair{"sim", simulated.back()}, std::pair{"driver", driven.back()}}) {
      std::printf("%-5d %-10s %12.6f %10.1f %10.1f %12.6f\n", seed, name,
                  f.useful_ratio, f.stale_p50, f.stale_p95, f.final_loss);
    }
  }

  // Each figure: |mean(driver) - mean(sim)| must not exceed the simulator's
  // own min-to-max spread across the seeds.
  struct Field {
    const char* name;
    double Figures::*member;
  };
  const Field fields[] = {{"useful_ratio", &Figures::useful_ratio},
                          {"stale_p50", &Figures::stale_p50},
                          {"stale_p95", &Figures::stale_p95},
                          {"final_loss", &Figures::final_loss}};
  bool ok = all_correct;
  for (const Field& field : fields) {
    double sim_mean = 0.0, drv_mean = 0.0;
    double lo = simulated.front().*field.member, hi = lo;
    for (int i = 0; i < kSeeds; ++i) {
      const double s = simulated[i].*field.member;
      sim_mean += s / kSeeds;
      drv_mean += driven[i].*field.member / kSeeds;
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
    const double gap = std::abs(drv_mean - sim_mean);
    const bool pass = gap <= (hi - lo) + 1e-12;
    ok = ok && pass;
    std::printf("%-13s sim mean %.6f  driver mean %.6f  gap %.6f  spread %.6f  %s\n",
                field.name, sim_mean, drv_mean, gap, hi - lo, pass ? "ok" : "FAIL");
  }
  std::printf("fidelity: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

// Example: how over-selection biases the trained model against slow,
// data-rich clients (Sec. 7.4 at example scale).
//
// Trains the same task three ways under one update budget and evaluates the
// final model on the test data of data-rich clients (the ones over-selection
// tends to drop, because slowness correlates with data volume).
//
//   $ ./fairness_bias

#include <algorithm>
#include <cstdio>

#include "sim/fl_simulator.hpp"
#include "util/stats.hpp"

namespace {

using namespace papaya;

sim::SimulationConfig make_config(fl::TrainingMode mode, double over_selection,
                                  std::size_t goal) {
  sim::SimulationConfig cfg;
  cfg.task.name = "lm";
  cfg.task.mode = mode;
  cfg.task.aggregation_goal = goal;
  cfg.task.concurrency =
      mode == fl::TrainingMode::kAsync
          ? 104
          : fl::TaskConfig::over_selected_cohort(goal, over_selection);
  cfg.task.client_timeout_s = 240.0;
  cfg.population.num_devices = 800;
  cfg.population.seed = 9;
  cfg.corpus.vocab_size = 64;
  cfg.model.vocab_size = 64;
  cfg.model.embed_dim = 12;
  cfg.model.hidden_dim = 24;
  cfg.model.context = 2;
  cfg.trainer.compute_losses = false;
  cfg.server_opt.lr = 0.05f;
  cfg.max_applied_updates = 4000;
  cfg.max_sim_time_s = 1.0e7;
  cfg.eval_every_steps = 50;
  cfg.seed = 9;
  cfg.record_participations = true;
  return cfg;
}

}  // namespace

int main() {
  std::printf("correlation check: slowness vs data volume in the fleet\n");
  {
    const sim::DevicePopulation pop(make_config(fl::TrainingMode::kAsync, 0, 13).population);
    std::vector<double> slowness, examples;
    for (std::size_t i = 0; i < pop.size(); ++i) {
      const sim::DeviceProfile d = pop.profile(i);
      slowness.push_back(std::log(d.hardware_factor));
      examples.push_back(static_cast<double>(d.num_examples));
    }
    std::printf("  pearson(log slowness, #examples) = %.2f\n\n",
                util::pearson(slowness, examples));
  }

  struct Run {
    const char* name;
    sim::SimulationConfig cfg;
  };
  const std::vector<Run> runs{
      {"SyncFL w/ OS", make_config(fl::TrainingMode::kSync, 0.3, 80)},
      {"AsyncFL", make_config(fl::TrainingMode::kAsync, 0.0, 13)},
  };

  std::printf("%-14s %-16s %-16s %-14s\n", "method", "ppl (all test)",
              "ppl (data-rich)", "dropped slow?");
  for (const Run& run : runs) {
    sim::FlSimulator simulator(run.cfg);
    const sim::SimulationResult result = simulator.run();

    // Evaluate on pooled test data and on the data-rich quartile.
    const auto& pop = simulator.population();
    std::vector<double> volumes;
    for (std::size_t i = 0; i < pop.size(); ++i) {
      volumes.push_back(static_cast<double>(pop.profile(i).num_examples));
    }
    const double p75 = util::percentile(volumes, 75.0);
    std::vector<ml::Sequence> all_test, rich_test;
    for (std::size_t i = 0; i < std::min<std::size_t>(pop.size(), 500); ++i) {
      const sim::DeviceProfile d = pop.profile(i);
      const auto data = simulator.corpus().client_dataset(d.id, d.num_examples);
      all_test.insert(all_test.end(), data.test.begin(), data.test.end());
      if (static_cast<double>(d.num_examples) >= p75) {
        rich_test.insert(rich_test.end(), data.test.begin(), data.test.end());
      }
    }
    const auto model = simulator.make_model_with_params(result.final_model);

    // Compare exec-time means of contributing vs all completing clients.
    std::vector<double> applied_times, all_times;
    for (const auto& p : result.participations) {
      if (p.dropped_out) continue;
      all_times.push_back(p.exec_time_s);
      if (p.update_applied) applied_times.push_back(p.exec_time_s);
    }
    std::printf("%-14s %-16.2f %-16.2f mean exec %4.0fs vs %4.0fs\n", run.name,
                model->perplexity(all_test), model->perplexity(rich_test),
                util::mean(applied_times), util::mean(all_times));
  }
  std::printf(
      "\nOver-selection's contributing clients are faster than the completing\n"
      "population (it discards stragglers), and its data-rich perplexity "
      "suffers;\nAsyncFL contributes everyone and serves data-rich clients "
      "better.\n");
  return 0;
}

// Table 1 reproduction: test perplexity after a fixed budget of applied
// client updates, for all clients and for clients in the 75th / 99th
// percentile of training-data volume, under three regimes:
//   SyncFL w/o over-selection  (unbiased but slow),
//   SyncFL w/  over-selection  (fast but biased against data-rich clients),
//   AsyncFL                    (fast and unbiased).
//
// Paper result (1M client updates; scaled here to 6000): over-selection
// costs ~6% perplexity overall and ~50% for the 99th-percentile (data-rich)
// clients; AsyncFL is the best across the board and as fast as SyncFL w/ OS,
// while SyncFL w/o OS takes ~7-10x longer.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "util/stats.hpp"

namespace {

using namespace papaya;
using namespace papaya::bench;

constexpr std::uint64_t kUpdateBudget = 6000;

struct Row {
  const char* name = nullptr;
  double ppl_all = 0.0;
  double ppl_p75 = 0.0;
  double ppl_p99 = 0.0;
  double hours = 0.0;
};

Row run(const char* name, sim::SimulationConfig cfg) {
  cfg.max_applied_updates = kUpdateBudget;
  cfg.max_sim_time_s = 1.0e7;
  cfg.eval_every_steps = 50;
  cfg.record_participations = false;
  sim::FlSimulator simulator(cfg);
  const sim::SimulationResult result = simulator.run();

  // Build per-percentile test sets from the device population: "75% and 99%
  // represent clients with data volume in the 75th and 99th percentiles".
  const sim::DevicePopulation& population = simulator.population();
  std::vector<double> volumes;
  for (std::size_t i = 0; i < population.size(); ++i) {
    volumes.push_back(static_cast<double>(population.profile(i).num_examples));
  }
  const double p75 = util::percentile(volumes, 75.0);
  const double p99 = util::percentile(volumes, 99.0);

  std::vector<ml::Sequence> all_test, p75_test, p99_test;
  // Bounded evaluation cost: the first 1500 devices.
  for (std::size_t i = 0; i < std::min<std::size_t>(population.size(), 1500);
       ++i) {
    const sim::DeviceProfile d = population.profile(i);
    const auto dataset = simulator.corpus().client_dataset(d.id, d.num_examples);
    for (const auto& seq : dataset.test) {
      all_test.push_back(seq);
      if (static_cast<double>(d.num_examples) >= p75) p75_test.push_back(seq);
      if (static_cast<double>(d.num_examples) >= p99) p99_test.push_back(seq);
    }
  }

  const auto model = simulator.make_model_with_params(result.final_model);
  Row row;
  row.name = name;
  row.ppl_all = model->perplexity(all_test);
  row.ppl_p75 = model->perplexity(p75_test);
  row.ppl_p99 = model->perplexity(p99_test);
  row.hours = sim_hours(result.end_time_s);
  return row;
}

}  // namespace

int main() {
  print_header("Table 1: test perplexity after a fixed client-update budget");
  std::printf("budget: %llu applied client updates (scaled from the paper's "
              "1M)\n\n",
              static_cast<unsigned long long>(kUpdateBudget));

  std::vector<Row> rows;
  {
    sim::SimulationConfig cfg = sync_config(/*goal=*/100, /*os=*/0.0);
    rows.push_back(run("SyncFL w/o OS", cfg));
  }
  {
    sim::SimulationConfig cfg = sync_config(/*goal=*/100, kOverSelection);
    rows.push_back(run("SyncFL with OS", cfg));
  }
  {
    sim::SimulationConfig cfg = async_config(/*concurrency=*/130, /*goal=*/13);
    rows.push_back(run("AsyncFL", cfg));
  }

  std::printf("%-16s %-10s %-10s %-10s %-12s\n", "Method", "All", "75%",
              "99%", "Time (h)");
  for (const Row& row : rows) {
    std::printf("%-16s %-10.2f %-10.2f %-10.2f %-12.2f\n", row.name,
                row.ppl_all, row.ppl_p75, row.ppl_p99, row.hours);
  }
  std::printf(
      "\nExpected shape (paper Table 1): AsyncFL lowest perplexity in every "
      "column\nand fastest; SyncFL w/ OS worst for data-rich (99%%) clients; "
      "SyncFL w/o OS\nunbiased but many times slower.\n");
  return 0;
}

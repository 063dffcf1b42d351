// Figure 8 reproduction: server model updates per hour as a function of
// concurrency, AsyncFL (fixed aggregation goal) vs SyncFL.
//
// Paper result: with K fixed at 100, AsyncFL's server-update rate grows
// nearly linearly with concurrency, reaching ~30x SyncFL's rate at
// concurrency 2300 (SyncFL's goal grows with its cohort, and each round
// waits on stragglers).  Scaled here: K = 13, concurrency 52 -> 416.

#include <cstdio>
#include <vector>

#include "common.hpp"

namespace {

using namespace papaya;
using namespace papaya::bench;

double updates_per_hour(const sim::SimulationResult& result) {
  return static_cast<double>(result.server_steps) /
         sim_hours(result.end_time_s);
}

}  // namespace

int main() {
  print_header("Figure 8: server model updates per hour vs concurrency");
  std::printf("(AsyncFL aggregation goal fixed at 13 - scaled from the "
              "paper's 100)\n\n");
  std::printf("%-12s %-16s %-16s %-8s\n", "concurrency", "SyncFL upd/h",
              "AsyncFL upd/h", "ratio");

  const std::vector<std::size_t> concurrencies{52, 104, 208, 312, 416};
  for (const std::size_t concurrency : concurrencies) {
    sim::SimulationConfig async_cfg = async_config(concurrency, 13);
    async_cfg.max_server_steps = 400;
    async_cfg.max_sim_time_s = 1.0e6;
    async_cfg.record_participations = false;
    sim::FlSimulator async_sim(async_cfg);
    const auto async_result = async_sim.run();

    sim::SimulationConfig sync_cfg = sync_config(
        static_cast<std::size_t>(static_cast<double>(concurrency) /
                                 (1.0 + kOverSelection)),
        kOverSelection);
    sync_cfg.task.concurrency = concurrency;
    sync_cfg.max_server_steps = 15;
    sync_cfg.max_sim_time_s = 1.0e6;
    sync_cfg.record_participations = false;
    sim::FlSimulator sync_sim(sync_cfg);
    const auto sync_result = sync_sim.run();

    const double async_rate = updates_per_hour(async_result);
    const double sync_rate = updates_per_hour(sync_result);
    std::printf("%-12zu %-16.1f %-16.1f %-8.1f\n", concurrency, sync_rate,
                async_rate, async_rate / sync_rate);
  }
  std::printf(
      "\nExpected shape (paper): AsyncFL rate grows ~linearly with "
      "concurrency;\nSyncFL rate is ~flat (rounds are straggler-bound), "
      "giving a ratio that\ngrows toward ~30x at the top of the sweep.\n");

  // Closed-loop column: with TaskConfig::closed_loop_clients the pipelined
  // arrival process drives the schedule, so the server-update rate reflects
  // the cadence a pipelined fleet sustains.  Constrained uplink + 1 KiB
  // chunks make the overlap material; every draw is keyed per device, so
  // each device draws identically and only the arrival timing differs.
  std::printf("\nClosed-loop column (AsyncFL K=13, uplink 0.005 Mbps, 1 KiB "
              "chunks):\n");
  std::printf("%-12s %-16s %-16s %-8s\n", "concurrency", "open-loop upd/h",
              "closed-loop upd/h", "delta");
  for (const std::size_t concurrency : {52UL, 104UL, 208UL}) {
    auto make_cfg = [&](bool closed_loop) {
      sim::SimulationConfig cfg = async_config(concurrency, 13);
      cfg.task.pipelined_clients = true;
      cfg.task.closed_loop_clients = closed_loop;
      cfg.network.mean_upload_mbps = 0.005;
      cfg.upload_chunk_bytes = 1024;
      cfg.max_server_steps = 150;
      cfg.max_sim_time_s = 1.0e6;
      cfg.record_participations = false;
      return cfg;
    };
    sim::FlSimulator open_sim(make_cfg(false));
    const auto open_result = open_sim.run();
    sim::FlSimulator closed_sim(make_cfg(true));
    const auto closed_result = closed_sim.run();
    const double open_rate = updates_per_hour(open_result);
    const double closed_rate = updates_per_hour(closed_result);
    std::printf("%-12zu %-16.1f %-16.1f %+.1f%%\n", concurrency, open_rate,
                closed_rate, 100.0 * (closed_rate / open_rate - 1.0));
  }
  std::printf("Expected shape: closed-loop rate is higher — overlapped "
              "uploads land earlier,\nso aggregation goals fill sooner at "
              "the same concurrency.\n");
  return 0;
}

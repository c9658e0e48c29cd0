// RAPTOR master/worker overlay demo: sustained docking throughput on a
// simulated Summit partition, showing bulk dispatch, load balancing over a
// heavy-tailed workload, and the effect of adding masters.
//
//   $ ./examples/raptor_throughput
//
// Exits 1 unless every configuration completes every request.

#include <cstdio>
#include <iostream>

#include "impeccable/rct/raptor.hpp"

namespace rct = impeccable::rct;

int main() {
  // 128 Summit nodes = 768 GPU workers; ~0.5 s per dock.
  const int nodes = 128;
  const auto durations = rct::docking_durations(200000, 0.5, 1);

  std::printf("workload: %zu docking requests (log-normal + heavy tail), "
              "%d nodes x 6 GPUs\n\n", durations.size(), nodes);
  std::printf("%-9s %-10s %-14s %-18s %-12s %-10s\n", "masters", "bulk",
              "makespan(s)", "docks/hour", "utilization", "imbalance");

  rct::RaptorStats best{};
  bool all_complete = true;
  for (int masters : {1, 4, 16}) {
    for (int bulk : {16, 128}) {
      rct::RaptorOptions opts;
      opts.masters = masters;
      opts.workers = nodes * 6;
      opts.bulk_size = bulk;
      const auto stats = rct::run_raptor(opts, durations);
      std::printf("%-9d %-10d %-14.1f %-18.3e %-12.3f %-10.3f\n", masters,
                  bulk, stats.makespan, stats.throughput_per_hour,
                  stats.worker_utilization, stats.load_imbalance);
      if (stats.tasks != durations.size()) {
        std::printf("FAIL: %zu of %zu requests completed\n", stats.tasks,
                    durations.size());
        all_complete = false;
      }
      if (stats.throughput_per_hour > best.throughput_per_hour) best = stats;
    }
  }
  std::printf("\nbest configuration (JSON):\n");
  best.to_json(std::cout);
  std::printf("\n\nNote: one master saturates on dispatch service time; "
              "sharding workers over several masters restores near-linear "
              "throughput (Sec. 6.1.2 of the paper).\n");
  return all_complete ? 0 : 1;
}

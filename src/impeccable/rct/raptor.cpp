#include "impeccable/rct/raptor.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <ostream>

#include "impeccable/common/rng.hpp"
#include "impeccable/hpc/machine.hpp"
#include "impeccable/obs/json.hpp"
#include "impeccable/rct/backend.hpp"
#include "impeccable/rct/raptor_backend.hpp"

namespace impeccable::rct {

void RaptorStats::to_json(std::ostream& os) const {
  obs::json::Writer w(os);
  w.begin_object();
  w.kv("tasks", static_cast<std::uint64_t>(tasks));
  w.kv("makespan", makespan);
  w.kv("throughput_per_hour", throughput_per_hour);
  w.kv("worker_utilization", worker_utilization);
  w.kv("load_imbalance", load_imbalance);
  w.kv("workers", static_cast<std::uint64_t>(worker_busy.size()));
  w.kv("workers_failed", workers_failed);
  w.kv("bulks_requeued", static_cast<std::uint64_t>(bulks_requeued));
  w.end_object();
}

void RaptorStats::finalize_derived() {
  throughput_per_hour =
      makespan > 0 ? static_cast<double>(tasks) / makespan * 3600.0 : 0.0;
  double total_busy = 0.0, max_busy = 0.0;
  for (double b : worker_busy) {
    total_busy += b;
    max_busy = std::max(max_busy, b);
  }
  const double denom = makespan * static_cast<double>(worker_busy.size());
  worker_utilization = denom > 0 ? total_busy / denom : 0.0;
  const double mean_busy =
      worker_busy.empty() ? 0.0
                          : total_busy / static_cast<double>(worker_busy.size());
  load_imbalance = mean_busy > 0 ? max_busy / mean_busy : 0.0;
}

RaptorStats run_raptor(const RaptorOptions& opts,
                       const std::vector<double>& durations) {
  // One node holding every overlay worker's slot: a bulk claims one CPU and
  // one GPU, so the cluster never limits what the prefetch window admits.
  hpc::MachineSpec machine;
  machine.cores_per_node = opts.workers;
  machine.gpus_per_node = opts.workers;
  SimBackend sim(machine, {.task_overhead = 0.0});
  RaptorBackend raptor(sim, {.overlay = opts});  // validates opts

  // Feed on demand: each completion submits the next request, so at most
  // workers x prefetch x bulk_size requests are ever outstanding.
  std::size_t next = 0;
  std::function<void()> feed = [&] {
    if (next == durations.size()) return;
    TaskDescription task;
    task.name = "dock";
    task.duration = durations[next++];
    raptor.submit(std::move(task), [&feed](const TaskResult&) { feed(); });
  };
  const std::size_t window = static_cast<std::size_t>(opts.workers) *
                             static_cast<std::size_t>(opts.prefetch) *
                             static_cast<std::size_t>(opts.bulk_size);
  while (next < std::min(window, durations.size())) feed();
  raptor.drain();
  return raptor.stats();
}

std::vector<double> docking_durations(std::size_t count, double mean_seconds,
                                      std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> out;
  out.reserve(count);
  // Log-normal with sigma=0.6 around the mean, plus a 2% long tail of
  // 5-15x ligands (highly flexible compounds).
  const double sigma = 0.6;
  const double mu = std::log(mean_seconds) - 0.5 * sigma * sigma;
  for (std::size_t i = 0; i < count; ++i) {
    double d = std::exp(rng.gauss(mu, sigma));
    if (rng.bernoulli(0.02)) d *= rng.uniform(5.0, 15.0);
    out.push_back(d);
  }
  return out;
}

}  // namespace impeccable::rct

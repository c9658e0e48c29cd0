#pragma once
// RAPTOR — the RAdical-Pilot Task OveRlay (Sec. 6.1.2, Fig. 3).
//
// A master/worker overlay built for very high-throughput, very short tasks
// (docking calls): masters dispatch function requests to workers in *bulks*
// (limiting communication frequency), a prefetch window keeps every worker
// fed while the next bulk is in transit, and bulks are sharded across
// several masters so no single master becomes a bottleneck. The overlay
// itself is RaptorBackend (raptor_backend.hpp); run_raptor() drives it on a
// SimBackend to reproduce the scaling study: near-linear scaling to
// thousands of nodes with sustained tens-of-millions docks/hour.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace impeccable::rct {

struct RaptorOptions {
  int masters = 1;
  int workers = 6;           ///< total workers (one GPU each on Summit)
  int bulk_size = 64;        ///< requests per dispatch message
  /// Master-side service time per dispatched bulk (serialization, IPC).
  double bulk_overhead = 2e-3;
  /// Master-side service time per request inside a bulk.
  double per_request_overhead = 2e-5;
  /// In-flight bulks per worker (prefetch depth hiding dispatch latency).
  int prefetch = 2;
  /// Probability in [0, 1) that a worker dies while executing a bulk (node
  /// failures, OOM-killed executors). The bulk's whole work is charged (the
  /// slot was held for all of it) and the master requeues the whole bulk; a
  /// replacement executor takes the dead one's slot, so tasks are never lost
  /// and capacity stays the same.
  double worker_failure_rate = 0.0;
  std::uint64_t failure_seed = 0xfa11;
};

struct RaptorStats {
  std::size_t tasks = 0;
  /// First bulk dispatch -> last bulk completion, backend seconds.
  double makespan = 0.0;
  double throughput_per_hour = 0.0; ///< tasks per hour
  double worker_utilization = 0.0;  ///< busy time / (workers * makespan)
  double load_imbalance = 0.0;      ///< max lane busy / mean lane busy
  /// Busy seconds per lane; bulk `id` is charged to lane id mod workers.
  std::vector<double> worker_busy;
  int workers_failed = 0;           ///< worker deaths (one per lost bulk)
  std::size_t bulks_requeued = 0;

  /// One JSON object (obs::json writer — deterministic doubles).
  void to_json(std::ostream& os) const;

  /// Recompute the derived metrics (throughput_per_hour, worker_utilization,
  /// load_imbalance) from tasks / makespan / worker_busy. A zero makespan,
  /// an empty worker set, or an all-idle overlay yields clean zeros instead
  /// of NaN/Inf — an empty workload must produce an all-zero report.
  void finalize_derived();
};

/// Execute `durations` (seconds per request, in order) through a
/// RaptorBackend over a fresh one-node SimBackend with `workers` slots and
/// no launch overhead. Requests are fed on demand, at most
/// workers x prefetch x bulk_size outstanding; bulk `id` goes to master
/// id mod masters. Throws std::invalid_argument on an invalid `opts` (see
/// RaptorBackend).
RaptorStats run_raptor(const RaptorOptions& opts,
                       const std::vector<double>& durations);

/// Generate a heavy-tailed docking-duration workload: log-normal body with
/// an occasional long-tail ligand ("the duration of the docking computation
/// varies significantly ... the long tail poses a challenge").
std::vector<double> docking_durations(std::size_t count, double mean_seconds,
                                      std::uint64_t seed);

}  // namespace impeccable::rct

#pragma once
// RaptorBackend — the RAPTOR master/worker overlay as an ExecutionBackend
// decorator (Sec. 6.1.2, Fig. 3), and the repo's only model of it:
// run_raptor() (raptor.hpp) is a driver over this class on a SimBackend.
//
// Tasks whose name matches a routed prefix (per-ligand "dock-*" requests,
// S1's "dock-chunk-*" shards) are coalesced into bulks: one bulk becomes one
// aggregated task on the inner backend — duration the sum of its members,
// priority their maximum, one worker-sized resource request — and its
// completion fans back out into per-member TaskResults, so AppManager
// retry/merge logic never sees the overlay. Bulk `id` is served by master
// id mod masters: each master serializes its dispatch costs
// (bulk_overhead + per_request_overhead · size). The prefetch window
// (workers × prefetch) bounds in-flight bulks; later bulks wait until a
// completion frees a slot. Busy time is charged per lane, lane = id mod
// workers. Everything not routed passes straight through.
//
// A per-member failure (payload threw) fails only that member; an inner
// task failure (e.g. a pilot-walltime kill) fails every member of the bulk
// — either way the members resurface individually and re-enter bulking when
// AppManager resubmits them. The optional worker-failure model requeues the
// whole bulk after charging half its work; the bulk keeps its window slot,
// so capacity stays the same (a replacement executor takes over).

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "impeccable/common/lockdep.hpp"
#include "impeccable/common/rng.hpp"
#include "impeccable/rct/backend.hpp"
#include "impeccable/rct/raptor.hpp"

namespace impeccable::rct {

struct RaptorBackendOptions {
  /// Overlay geometry and costs — masters, workers, bulk_size, per-bulk and
  /// per-request master overheads, prefetch depth, failure model.
  RaptorOptions overlay;
  /// Tasks whose name starts with one of these prefixes route through the
  /// overlay; everything else passes straight to the inner backend. The
  /// default captures both the real S1 path ("dock-<ligand>") and the
  /// ScaleModel path ("dock-chunk-<i>").
  std::vector<std::string> route_prefixes{"dock"};
  /// Resource request of one bulk on the inner backend (one overlay worker
  /// = one GPU-holding executor in the paper's Summit deployment).
  int bulk_cpus = 1;
  int bulk_gpus = 1;
};

/// ExecutionBackend decorator that maps routed tasks into RAPTOR bulks.
class RaptorBackend : public ExecutionBackend {
 public:
  /// Throws std::invalid_argument unless 1 <= masters <= workers,
  /// bulk_size >= 1, prefetch >= 1 and worker_failure_rate is in [0, 1).
  explicit RaptorBackend(ExecutionBackend& inner,
                         const RaptorBackendOptions& opts = {});

  void submit(TaskDescription task, CompletionCallback on_complete) override;
  void after(double delay, std::function<void()> fn) override;
  void drain() override;
  double now() override;
  common::ThreadPool* compute_pool() override;
  /// Attaches to both layers: the inner backend emits the per-bulk
  /// cat::kTask spans, this adapter emits cat::kRaptor bulk spans and the
  /// raptor.{requests,bulks,requeues} counters.
  void set_recorder(obs::Recorder* rec) override;

  /// Overlay statistics over everything routed so far. makespan is the
  /// first-dispatch → last-completion window; derived metrics go through
  /// RaptorStats::finalize_derived (zero-safe on an empty overlay).
  RaptorStats stats() const;

  ExecutionBackend& inner() { return inner_; }
  const RaptorBackendOptions& options() const { return opts_; }

 private:
  struct Request {
    TaskDescription task;
    CompletionCallback done;
    bool ok = true;
    std::string error;
  };
  struct Bulk {
    std::uint64_t id = 0;
    std::vector<Request> members;
    double work = 0.0;        ///< sum of member durations
    double priority = 0.0;    ///< max member priority
    int lane = 0;             ///< modeled worker shard (stats bucket)
    double dispatched = 0.0;  ///< backend time the master released it
  };

  bool routed(const std::string& name) const;
  /// Drain the coalescing buffer into bulks (trailing partial included) and
  /// launch each one. Runs as a zero-delay event so every same-instant
  /// submission lands in the same flush.
  void flush();
  /// Admit the bulk into the prefetch window, or hold it until a completion
  /// frees a slot.
  void launch(std::shared_ptr<Bulk> bulk);
  /// Serialize the master service time and submit the aggregate inner task.
  void dispatch(std::shared_ptr<Bulk> bulk);
  void submit_bulk(const std::shared_ptr<Bulk>& bulk);
  void on_bulk_done(std::shared_ptr<Bulk> bulk, const TaskResult& result);

  ExecutionBackend& inner_;
  RaptorBackendOptions opts_;

  mutable common::OrderedMutex<common::lockrank::RaptorOverlay> mu_;
  std::vector<Request> buffer_;
  bool flush_scheduled_ = false;
  std::deque<std::shared_ptr<Bulk>> held_;  ///< beyond the prefetch window
  std::vector<double> master_busy_until_;
  std::vector<double> lane_busy_;  ///< per modeled worker busy seconds
  int in_flight_ = 0;
  std::uint64_t bulk_counter_ = 0;
  std::size_t requests_done_ = 0;
  std::size_t bulks_done_ = 0;
  double first_dispatch_ = -1.0;
  double last_completion_ = 0.0;
  int workers_failed_ = 0;
  std::size_t bulks_requeued_ = 0;
  common::Rng failure_rng_;
};

}  // namespace impeccable::rct

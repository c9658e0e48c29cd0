#include "impeccable/rct/raptor_backend.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace impeccable::rct {

RaptorBackend::RaptorBackend(ExecutionBackend& inner,
                             const RaptorBackendOptions& opts)
    : inner_(inner), opts_(opts), failure_rng_(opts.overlay.failure_seed) {
  const RaptorOptions& o = opts_.overlay;
  if (o.masters < 1 || o.workers < 1)
    throw std::invalid_argument("RaptorBackend: need at least one master/worker");
  if (o.masters > o.workers)
    throw std::invalid_argument("RaptorBackend: fewer workers than masters");
  if (o.bulk_size < 1)
    throw std::invalid_argument("RaptorBackend: bulk_size must be >= 1");
  if (o.prefetch < 1)
    throw std::invalid_argument("RaptorBackend: prefetch must be >= 1");
  // Rate 1 kills every bulk, so nothing would ever complete.
  if (!(o.worker_failure_rate >= 0.0 && o.worker_failure_rate < 1.0))
    throw std::invalid_argument(
        "RaptorBackend: worker_failure_rate must be in [0, 1)");
  master_busy_until_.assign(static_cast<std::size_t>(opts_.overlay.masters),
                            0.0);
  lane_busy_.assign(static_cast<std::size_t>(opts_.overlay.workers), 0.0);
  recorder_ = inner_.recorder();
}

bool RaptorBackend::routed(const std::string& name) const {
  for (const std::string& p : opts_.route_prefixes)
    if (name.size() >= p.size() && name.compare(0, p.size(), p) == 0)
      return true;
  return false;
}

void RaptorBackend::submit(TaskDescription task, CompletionCallback on_complete) {
  if (!routed(task.name)) {
    inner_.submit(std::move(task), std::move(on_complete));
    return;
  }
  bool need_flush = false;
  {
    std::lock_guard lock(mu_);
    Request req;
    req.task = std::move(task);
    req.done = std::move(on_complete);
    buffer_.push_back(std::move(req));
    need_flush = !flush_scheduled_;
    flush_scheduled_ = true;
  }
  // One zero-delay flush event coalesces every same-instant submission
  // (a whole S1 wave, possibly across targets) into consecutive bulks.
  if (need_flush) inner_.after(0.0, [this] { flush(); });
}

void RaptorBackend::flush() {
  std::vector<std::shared_ptr<Bulk>> formed;
  {
    std::lock_guard lock(mu_);
    flush_scheduled_ = false;
    const std::size_t size = static_cast<std::size_t>(opts_.overlay.bulk_size);
    for (std::size_t at = 0; at < buffer_.size(); at += size) {
      auto bulk = std::make_shared<Bulk>();
      bulk->id = bulk_counter_++;
      const std::size_t end = std::min(buffer_.size(), at + size);
      for (std::size_t i = at; i < end; ++i) {
        bulk->work += buffer_[i].task.duration;
        bulk->priority = std::max(bulk->priority, buffer_[i].task.priority);
        bulk->members.push_back(std::move(buffer_[i]));
      }
      formed.push_back(std::move(bulk));
    }
    buffer_.clear();
  }
  for (auto& bulk : formed) launch(std::move(bulk));
}

void RaptorBackend::launch(std::shared_ptr<Bulk> bulk) {
  {
    std::lock_guard lock(mu_);
    const int window = opts_.overlay.workers * opts_.overlay.prefetch;
    if (in_flight_ >= window) {
      held_.push_back(std::move(bulk));
      return;
    }
    ++in_flight_;
  }
  dispatch(std::move(bulk));
}

void RaptorBackend::dispatch(std::shared_ptr<Bulk> bulk) {
  double delay = 0.0;
  {
    std::lock_guard lock(mu_);
    const double service =
        opts_.overlay.bulk_overhead +
        opts_.overlay.per_request_overhead *
            static_cast<double>(bulk->members.size());
    const std::size_t m = static_cast<std::size_t>(
        bulk->id % static_cast<std::uint64_t>(opts_.overlay.masters));
    const double now_s = inner_.now();
    // The master serializes its dispatches: service starts when it frees up.
    const double done_at = std::max(master_busy_until_[m], now_s) + service;
    master_busy_until_[m] = done_at;
    delay = done_at - now_s;
    bulk->lane = static_cast<int>(bulk->id %
                                  static_cast<std::uint64_t>(opts_.overlay.workers));
    bulk->dispatched = done_at;
    if (first_dispatch_ < 0.0) first_dispatch_ = done_at;
  }
  inner_.after(delay, [this, bulk = std::move(bulk)] { submit_bulk(bulk); });
}

void RaptorBackend::submit_bulk(const std::shared_ptr<Bulk>& bulk) {
  TaskDescription task;
  task.name = "raptor-bulk-" + std::to_string(bulk->id);
  task.cpus = opts_.bulk_cpus;
  task.gpus = opts_.bulk_gpus;
  task.duration = bulk->work;
  task.priority = bulk->priority;
  task.payload = [bulk] {
    // The worker executes the bulk's requests back to back; one member
    // throwing fails that member only, not the bulk.
    for (Request& r : bulk->members) {
      r.ok = true;
      r.error.clear();
      if (!r.task.payload) continue;
      try {
        r.task.payload();
      } catch (const std::exception& e) {
        r.ok = false;
        r.error = e.what();
      }
    }
  };
  inner_.submit(std::move(task), [this, bulk](const TaskResult& result) {
    on_bulk_done(bulk, result);
  });
}

void RaptorBackend::on_bulk_done(std::shared_ptr<Bulk> bulk,
                                 const TaskResult& result) {
  if (result.ok && opts_.overlay.worker_failure_rate > 0.0) {
    bool dies = false;
    {
      std::lock_guard lock(mu_);
      dies = failure_rng_.bernoulli(opts_.overlay.worker_failure_rate);
      if (dies) {
        // The worker died during the bulk: its slot was held for the whole
        // bulk, so charge all of it, and re-execute the whole bulk (results
        // of a dead executor are lost).
        ++workers_failed_;
        ++bulks_requeued_;
        lane_busy_[static_cast<std::size_t>(bulk->lane)] += bulk->work;
      }
    }
    if (dies) {
      if (obs::Recorder* rec = recorder())
        rec->metrics().counter("raptor.requeued").add(1);
      dispatch(std::move(bulk));  // keeps its prefetch-window slot
      return;
    }
  }

  std::shared_ptr<Bulk> next;
  {
    std::lock_guard lock(mu_);
    if (result.ok)
      lane_busy_[static_cast<std::size_t>(bulk->lane)] += bulk->work;
    for (const Request& r : bulk->members)
      if (result.ok && r.ok) ++requests_done_;
    ++bulks_done_;
    last_completion_ = std::max(last_completion_, result.end_time);
    --in_flight_;
    if (!held_.empty()) {
      next = std::move(held_.front());
      held_.pop_front();
      ++in_flight_;
    }
  }

  if (obs::Recorder* rec = recorder()) {
    obs::SpanRecord span;
    span.category = obs::cat::kRaptor;
    span.name = "raptor-bulk";
    span.start = bulk->dispatched;
    span.end = result.end_time;
    span.arg("requests", static_cast<double>(bulk->members.size()));
    span.arg("work", bulk->work);
    span.arg("lane", static_cast<double>(bulk->lane));
    span.arg("priority", bulk->priority);
    rec->emit(std::move(span));
    rec->metrics().counter("raptor.bulks").add(1);
    rec->metrics().counter("raptor.requests").add(bulk->members.size());
  }

  // Fan the aggregate result back out: AppManager sees per-member results
  // and its retry logic resubmits failures, which then re-enter bulking.
  for (Request& r : bulk->members) {
    TaskResult member;
    member.name = r.task.name;
    member.ok = result.ok && r.ok;
    member.error = result.ok ? r.error : result.error;
    member.start_time = result.start_time;
    member.end_time = result.end_time;
    r.done(member);
  }

  if (next) dispatch(std::move(next));
}

void RaptorBackend::after(double delay, std::function<void()> fn) {
  inner_.after(delay, std::move(fn));
}

void RaptorBackend::drain() { inner_.drain(); }

double RaptorBackend::now() { return inner_.now(); }

common::ThreadPool* RaptorBackend::compute_pool() {
  return inner_.compute_pool();
}

void RaptorBackend::set_recorder(obs::Recorder* rec) {
  recorder_ = rec;
  inner_.set_recorder(rec);
}

RaptorStats RaptorBackend::stats() const {
  std::lock_guard lock(mu_);
  RaptorStats s;
  s.tasks = requests_done_;
  s.makespan = first_dispatch_ >= 0.0 ? last_completion_ - first_dispatch_ : 0.0;
  s.worker_busy = lane_busy_;
  s.workers_failed = workers_failed_;
  s.bulks_requeued = bulks_requeued_;
  s.finalize_derived();
  return s;
}

}  // namespace impeccable::rct

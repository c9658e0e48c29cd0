#include "impeccable/serve/loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "impeccable/chem/library.hpp"
#include "impeccable/chem/ligand_source.hpp"
#include "impeccable/common/rng.hpp"
#include "impeccable/obs/metrics.hpp"

namespace impeccable::serve {

namespace {

/// Microsecond-latency histogram layout: 1 us .. 10 s, 6 buckets/decade.
const obs::HistogramSpec kLatencySpec{1.0, 1e7, 42};

LoadReport finish_report(const obs::Histogram& hist, double duration_s,
                         std::size_t issued, std::size_t completed,
                         std::size_t shed) {
  LoadReport r;
  r.duration_s = duration_s;
  r.issued = issued;
  r.completed = completed;
  r.shed = shed;
  if (duration_s > 0.0) {
    r.offered_rps = static_cast<double>(issued) / duration_s;
    r.achieved_rps = static_cast<double>(completed) / duration_s;
  }
  const auto snap = hist.snapshot();
  if (snap.count > 0) {
    r.p50_us = hist.quantile(0.50);
    r.p95_us = hist.quantile(0.95);
    r.p99_us = hist.quantile(0.99);
    r.mean_us = snap.sum / static_cast<double>(snap.count);
    r.max_us = snap.max;
  }
  return r;
}

}  // namespace

Workload make_workload(const WorkloadOptions& opts) {
  Workload w;
  const std::size_t uniques = std::max<std::size_t>(1, opts.unique_ligands);
  // Library access goes through the LigandSource abstraction (the campaign
  // engine's data path), not hand-rolled parse/depict over raw entries.
  chem::SourceOptions sopts;
  sopts.depiction.channels = opts.channels;
  sopts.depiction.height = opts.height;
  sopts.depiction.width = opts.width;
  const chem::InMemorySource source(
      chem::generate_library("SRV", uniques, opts.seed), sopts);
  std::vector<chem::Image> images;
  source.images(0, source.size(), images);
  w.unique.reserve(images.size());
  for (chem::Image& image : images) {
    Request req;
    req.image = std::move(image);
    // Key on the depiction digest: it is exactly the content the model
    // consumes, so identical keys imply identical CNN inputs — the cache
    // can never alias two ligands the model would score differently.
    req.key = key_of(req.image);
    w.unique.push_back(std::move(req));
  }

  const std::size_t hot =
      std::min(std::max<std::size_t>(1, opts.hot_set), w.unique.size());
  common::Rng rng(opts.seed ^ 0x10adc11e47ULL);
  w.stream.reserve(opts.stream_length);
  for (std::size_t i = 0; i < opts.stream_length; ++i) {
    const bool repeat = rng.bernoulli(opts.repeat_fraction);
    w.stream.push_back(repeat ? rng.index(hot) : rng.index(w.unique.size()));
  }
  return w;
}

LoadReport run_closed_loop(InferenceServer& server, const std::string& target,
                           const Workload& workload,
                           const ClosedLoopOptions& opts) {
  const int clients = std::max(1, opts.clients);
  const std::size_t per_client = std::max<std::size_t>(1, opts.requests_per_client);
  obs::Histogram hist(kLatencySpec);
  std::atomic<std::size_t> completed{0}, shed{0};

  const double start = server.now();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      for (std::size_t k = 0; k < per_client; ++k) {
        const std::size_t at =
            static_cast<std::size_t>(c) * per_client + k;
        Request req = workload.at(at);  // copy: the server consumes images
        const double t0 = server.now();
        const Response resp = server.submit(target, std::move(req)).get();
        if (resp.status == Status::kOk) {
          hist.observe((server.now() - t0) * 1e6);
          completed.fetch_add(1, std::memory_order_relaxed);
        } else {
          shed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  const double duration = server.now() - start;

  return finish_report(hist, duration,
                       static_cast<std::size_t>(clients) * per_client,
                       completed.load(), shed.load());
}

LoadReport run_open_loop(InferenceServer& server, const std::string& target,
                         const Workload& workload,
                         const OpenLoopOptions& opts) {
  const std::size_t n = std::max<std::size_t>(1, opts.requests);
  const double rps = std::max(1.0, opts.offered_rps);
  obs::Histogram hist(kLatencySpec);

  struct Issued {
    std::future<Response> fut;
    double scheduled;  ///< server-clock send time (latency baseline)
  };
  std::vector<Issued> inflight;
  inflight.reserve(n);

  const auto start_tp = std::chrono::steady_clock::now();
  const double start = server.now();
  for (std::size_t k = 0; k < n; ++k) {
    const double offset_s = static_cast<double>(k) / rps;
    std::this_thread::sleep_until(
        start_tp + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(offset_s)));
    Request req = workload.at(k);
    inflight.push_back({server.submit(target, std::move(req)), start + offset_s});
  }

  std::size_t completed = 0, shed = 0;
  for (auto& issued : inflight) {
    const Response resp = issued.fut.get();
    if (resp.status == Status::kOk) {
      // Scheduled-time baseline: queueing delay from dispatcher lag counts
      // against the server, not the client (no coordinated omission).
      hist.observe(std::max(0.0, resp.done_time - issued.scheduled) * 1e6);
      ++completed;
    } else {
      ++shed;
    }
  }
  const double duration = server.now() - start;
  return finish_report(hist, duration, n, completed, shed);
}

}  // namespace impeccable::serve

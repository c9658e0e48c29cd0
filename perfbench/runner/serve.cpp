// serve: a traced open-loop run against serve::InferenceServer at a fixed
// offered rate. It is not a workload of its own: perfbench/run.py calls it
// after the screen workload's traced passes, for the serve.* per-layer
// metrics. The load generator is the benchmark's own (single-threaded,
// calls only InferenceServer::submit) so a change to serve/loadgen cannot
// move the measurement.

#include <algorithm>
#include <cstring>
#include <future>
#include <memory>
#include <random>
#include <thread>

#include "impeccable/chem/library.hpp"
#include "impeccable/chem/ligand_source.hpp"
#include "impeccable/ml/surrogate.hpp"
#include "impeccable/obs/recorder.hpp"
#include "impeccable/serve/score_cache.hpp"
#include "impeccable/serve/server.hpp"
#include "util.hpp"

namespace chem = impeccable::chem;
namespace ml = impeccable::ml;
namespace obs = impeccable::obs;
namespace serve = impeccable::serve;

namespace perfbench {

namespace {

constexpr const char* kTarget = "perfbench";
constexpr std::size_t kUnique = 6144;   ///< distinct pre-depicted ligands
constexpr std::size_t kHot = 512;       ///< the repeated subset
constexpr double kRepeat = 0.25;        ///< share of requests from kHot
constexpr std::size_t kCache = 2048;    ///< score-cache entries
constexpr double kRate = 400.0;         ///< offered requests per second
constexpr std::size_t kWarmup = 4096;   ///< cache warm-up requests
constexpr std::size_t kCheckEvery = 61; ///< served-score sample stride

struct Service {
  std::vector<serve::Request> pool;  ///< request content by ligand ordinal
  std::unique_ptr<serve::InferenceServer> server;
};

Service set_up(const Options& opts) {
  Service s;
  const chem::InMemorySource source(
      chem::generate_library("SRV", kUnique, 0x5e7e + opts.seed));
  s.pool.reserve(source.size());
  for (std::size_t i = 0; i < source.size(); ++i) {
    serve::Request req;
    req.image = source.image(i);
    req.key = serve::key_of(req.image);
    s.pool.push_back(std::move(req));
  }
  serve::ServeOptions sopts;
  sopts.admission = serve::AdmissionPolicy::kShed;
  sopts.cache.capacity = kCache;
  s.server = std::make_unique<serve::InferenceServer>(sopts);
  s.server->register_target(kTarget, std::make_unique<ml::SurrogateModel>());
  return s;
}

/// The seeded request mix: ligand ordinals and exponential inter-arrival
/// gaps (independent users -> Poisson arrivals at kRate).
class Stream {
 public:
  explicit Stream(std::uint64_t seed) {
    std::seed_seq seq{std::uint64_t{0x5e12e}, seed};
    rng_.seed(seq);
  }
  std::size_t next_ligand() {
    return coin_(rng_) < kRepeat ? hot_(rng_) : any_(rng_);
  }
  double next_gap() { return gap_(rng_); }

 private:
  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> coin_{0.0, 1.0};
  std::uniform_int_distribution<std::size_t> hot_{0, kHot - 1};
  std::uniform_int_distribution<std::size_t> any_{0, kUnique - 1};
  std::exponential_distribution<double> gap_{kRate};
};

/// Fill the cache to steady state: closed-loop bursts of the request mix.
void warm_up(Service& s, Stream& stream) {
  std::vector<std::future<serve::Response>> burst;
  for (std::size_t sent = 0; sent < kWarmup;) {
    burst.clear();
    for (std::size_t i = 0; i < 256 && sent < kWarmup; ++i, ++sent)
      burst.push_back(
          s.server->submit(kTarget, s.pool[stream.next_ligand()]));
    for (auto& f : burst) f.get();
  }
}

struct Sent {
  std::future<serve::Response> done;
  double scheduled = 0.0;  ///< server clock
  std::size_t ligand = 0;
};

struct Served {
  std::size_t ligand = 0;
  float score = 0.0f;
  double scheduled = 0.0, done = 0.0;  ///< server clock
};

struct Phase {
  std::vector<Served> served;
  std::size_t sent = 0, shed = 0;
  double start = 0.0, end = 0.0;  ///< server clock
  double lag_max_s = 0.0, lag_mean_s = 0.0;
};

/// Open loop for `seconds`: each request is sent when due whatever the
/// state of earlier ones, and timed from when it was due.
Phase open_loop(const Service& s, Stream& stream, double seconds) {
  using clock = std::chrono::steady_clock;
  serve::InferenceServer& server = *s.server;
  std::vector<Sent> sent;
  sent.reserve(static_cast<std::size_t>(seconds * kRate * 1.2) + 16);
  Phase p;
  double lag_sum = 0.0;
  const clock::time_point tp0 = clock::now();
  p.start = server.now();
  for (double offset = stream.next_gap(); offset < seconds;
       offset += stream.next_gap()) {
    const clock::time_point due =
        tp0 + std::chrono::duration_cast<clock::duration>(
                  std::chrono::duration<double>(offset));
    // Sleep to just short of the send time, then spin, so the generator's
    // own wake-up delay rarely adds to a request's latency.
    const auto wake = due - std::chrono::microseconds(200);
    if (clock::now() < wake) std::this_thread::sleep_until(wake);
    while (clock::now() < due) {
    }
    const double lag =
        std::chrono::duration<double>(clock::now() - due).count();
    p.lag_max_s = std::max(p.lag_max_s, lag);
    lag_sum += lag;
    const std::size_t ligand = stream.next_ligand();
    sent.push_back({server.submit(kTarget, s.pool[ligand]), p.start + offset,
                    ligand});
  }
  p.sent = sent.size();
  p.lag_mean_s = sent.empty() ? 0.0 : lag_sum / static_cast<double>(sent.size());
  p.end = p.start;
  for (Sent& r : sent) {
    const serve::Response resp = r.done.get();
    if (resp.status != serve::Status::kOk) {
      ++p.shed;
      continue;
    }
    p.served.push_back({r.ligand, resp.score, r.scheduled, resp.done_time});
    p.end = std::max(p.end, resp.done_time);
  }
  return p;
}

/// Every request is accounted for, and a sample of served scores is bitwise
/// equal to a direct predict_batch on an identically built model.
void check_phase(const Service& s, const Phase& p, Result& res) {
  res.attempted += p.sent;
  res.failed += p.sent - p.served.size();
  res.check(p.served.size() + p.shed == p.sent,
            "serve: requests neither served nor shed");
  res.check(!p.served.empty(), "serve: no request served");
  std::vector<chem::Image> images;
  std::vector<float> served;
  for (std::size_t i = 0; i < p.served.size(); i += kCheckEvery) {
    images.push_back(s.pool[p.served[i].ligand].image);
    served.push_back(p.served[i].score);
  }
  const std::vector<float> direct = ml::SurrogateModel().predict_batch(images);
  res.check(direct.size() == served.size() &&
                std::memcmp(direct.data(), served.data(),
                            served.size() * sizeof(float)) == 0,
            "serve: served scores differ from direct predict_batch");
}

}  // namespace

Result run_serve(const Options& opts) {
  Result res;
  Service service = set_up(opts);
  Stream stream(opts.seed);
  warm_up(service, stream);

  // One traced open loop; the counters published before it let the
  // analyzer take deltas over the loop alone.
  obs::Recorder rec;
  serve::InferenceServer& server = *service.server;
  server.publish_metrics(rec.metrics(), "serve_before");
  Phase traced;
  {
    obs::ScopedRecorder installed(&rec);
    traced = open_loop(service, stream, opts.seconds);
  }
  server.publish_metrics(rec.metrics(), "serve");
  check_phase(service, traced, res);

  // Server clock -> recorder clock (both steady, different epochs).
  const double shift = rec.now() - server.now();
  obs::SpanRecord loadgen;
  loadgen.category = "bench";
  loadgen.name = "serve.open_loop";
  loadgen.start = traced.start + shift;
  loadgen.end = traced.end + shift;
  loadgen.arg("offered_rps", kRate);
  loadgen.arg("sent", static_cast<double>(traced.sent));
  loadgen.arg("shed", static_cast<double>(traced.shed));
  loadgen.arg("gen_lag_max_s", traced.lag_max_s);
  loadgen.arg("gen_lag_mean_s", traced.lag_mean_s);
  rec.emit(std::move(loadgen));
  for (const Served& r : traced.served) {
    obs::SpanRecord request;
    request.category = "bench";
    request.name = "serve.request";
    request.start = r.scheduled + shift;
    request.end = r.done + shift;
    rec.emit(std::move(request));
  }
  write_trace(rec, opts, res);
  return res;
}

}  // namespace perfbench

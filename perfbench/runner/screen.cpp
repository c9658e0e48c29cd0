// screen: one out-of-core ML1 pass — ml::score_ligands over a
// chem::MmapSource of a spilled chem::LigandStore, into an in-memory
// ml::ScoreSpill and an ml::StreamingTopK, on a compute pool of
// min(4, nproc) workers.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>

#include "impeccable/chem/library.hpp"
#include "impeccable/chem/ligand_source.hpp"
#include "impeccable/chem/store.hpp"
#include "impeccable/common/thread_pool.hpp"
#include "impeccable/ml/gemm.hpp"
#include "impeccable/ml/streaming.hpp"
#include "impeccable/ml/surrogate.hpp"
#include "impeccable/obs/recorder.hpp"
#include "util.hpp"

namespace chem = impeccable::chem;
namespace common = impeccable::common;
namespace ml = impeccable::ml;
namespace obs = impeccable::obs;

namespace perfbench {

namespace {

constexpr std::size_t kLibrary = 8000;
constexpr std::size_t kWindow = 4096;  ///< the campaign's featurize_window
constexpr std::size_t kTopK = 500;

struct Screen {
  std::optional<chem::MmapSource> source;
  std::unique_ptr<ml::SurrogateModel> model;
};

/// Spill a generated library into a fresh store, open it, build the model.
Screen set_up(const Options& opts) {
  const std::string dir = opts.out_dir + "/store";
  std::filesystem::remove_all(dir);
  {
    const chem::CompoundLibrary lib =
        chem::generate_library("SCR", kLibrary, 0x5c4ee7 + opts.seed);
    chem::StoreWriterOptions wopts;
    wopts.records_per_shard = 2048;
    chem::LigandStoreWriter writer(dir, wopts);
    for (const auto& entry : lib.entries) writer.append(entry.id, entry.smiles);
    writer.finish();
  }
  Screen s;
  s.source.emplace(chem::LigandStore::open(dir));
  s.model = std::make_unique<ml::SurrogateModel>();
  return s;
}

struct Pass {
  double seconds = 0.0;
  std::size_t scored = 0;
  std::vector<float> scores;
  std::vector<ml::TopCandidate> top;
};

/// One timed score_ligands call; with a recorder, wrapped in the
/// benchmark's own span.
Pass score_pass(const Screen& s, obs::Recorder* rec = nullptr) {
  const std::size_t n = s.source->size();
  ml::ScoreSpill spill = ml::ScoreSpill::in_memory(n);
  ml::StreamingTopK topk(kTopK);
  Pass p;
  {
    obs::Span span("bench", "screen.score_ligands", rec);
    if (span.active()) {
      span.arg("ligands", static_cast<double>(n));
      const common::ThreadPool* pool = ml::compute_pool();
      span.arg("workers", static_cast<double>(pool ? pool->size() : 1));
    }
    const double t0 = now_s();
    p.scored = ml::score_ligands(*s.source, *s.model, 0, n, kWindow, &spill,
                                 &topk);
    p.seconds = now_s() - t0;
  }
  p.scores.resize(n);
  spill.read(0, p.scores.data(), n);
  p.top = topk.take_sorted();
  return p;
}

/// Scored count equals the library size, the streamed top-k equals an exact
/// sort of the spill, and scores are bitwise equal to the first pass.
void check_pass(const Pass& p, const std::vector<float>& first,
                const std::string& label, Result& res) {
  res.attempted += kLibrary;
  res.failed += kLibrary - std::min(kLibrary, p.scored);
  res.check(p.scored == kLibrary,
            label + ": scored " + std::to_string(p.scored) + " of " +
                std::to_string(kLibrary) + " ligands");
  std::vector<ml::TopCandidate> exact;
  exact.reserve(p.scores.size());
  for (std::size_t i = 0; i < p.scores.size(); ++i)
    exact.push_back({p.scores[i], i});
  std::sort(exact.begin(), exact.end(), ml::candidate_better);
  exact.resize(std::min(exact.size(), kTopK));
  bool same = exact.size() == p.top.size();
  for (std::size_t i = 0; same && i < exact.size(); ++i)
    same = exact[i].index == p.top[i].index &&
           std::memcmp(&exact[i].score, &p.top[i].score, sizeof(float)) == 0;
  res.check(same, label + ": streamed top-k differs from a sort of the spill");
  res.check(p.scores.size() == first.size() &&
                std::memcmp(p.scores.data(), first.data(),
                            first.size() * sizeof(float)) == 0,
            label + ": scores differ from the first pass");
}

}  // namespace

Result run_screen(const Options& opts) {
  Result res;
  // Set-up precedes every pass, so its samples spread over the run.
  std::optional<Screen> screen;
  auto fresh_screen = [&] {
    screen.reset();  // unmap the previous store before it is replaced
    const double t0 = now_s();
    screen.emplace(set_up(opts));
    res.setup_s.push_back(now_s() - t0);
    res.check(screen->source->store().stats().shards_skipped == 0,
              "store: corrupt shards skipped");
    res.check(screen->source->size() == kLibrary, "store: wrong record count");
  };

  struct ComputePool {
    common::ThreadPool pool;
    explicit ComputePool(std::size_t workers) : pool(workers) {
      ml::set_compute_pool(&pool);
    }
    ~ComputePool() { ml::set_compute_pool(nullptr); }
  };
  std::optional<ComputePool> compute(std::in_place, opts.workers);

  std::vector<float> first;
  auto pass = [&](const std::string& label, obs::Recorder* rec = nullptr) {
    Pass p = score_pass(*screen, rec);
    if (first.empty()) first = p.scores;
    check_pass(p, first, label, res);
    return p.seconds;
  };

  if (!opts.trace) {
    const double start = now_s();
    do {
      fresh_screen();
      const double wall = pass("pass " + std::to_string(res.op_s.size()));
      res.op_s.push_back(wall);
      res.busy_s += wall;
      res.items += static_cast<double>(kLibrary);
    } while (res.op_s.size() < 3 || now_s() - start < opts.seconds);
    return res;
  }

  fresh_screen();
  // Traced run: untraced reference pass, traced pass inside the
  // benchmark's own span, then a 1-worker pass for the pool speedup.
  res.extra["untraced_s"] = pass("untraced pass");
  obs::Recorder rec;
  {
    obs::ScopedRecorder installed(&rec);
    res.extra["traced_s"] = pass("traced pass", &rec);
  }
  compute.emplace(1);
  res.extra["serial_s"] = pass("1-worker pass");
  compute.reset();
  write_trace(rec, opts, res);
  return res;
}

}  // namespace perfbench

// ML1 deployment path (Sec. 6.1.1): the library arrives as sharded files,
// some of which may be damaged, and the surrogate must score every intact
// ligand without dying on the bad ones. Generate a compound library straight
// into the on-disk LigandStore in 50-ligand shards, overwrite one shard with
// garbage, reopen the store (the bad shard is skipped and counted), then
// stream the survivors through ml::score_ligands — windowed featurization
// and batched inference on the compute pool — into a score spill and an
// exact streaming top-k.
//
// Exits nonzero unless exactly one shard was skipped and every ligand of the
// intact shards was scored.
//
//   $ ./examples/sharded_inference

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "impeccable/chem/ligand_source.hpp"
#include "impeccable/common/thread_pool.hpp"
#include "impeccable/ml/gemm.hpp"
#include "impeccable/ml/streaming.hpp"
#include "impeccable/ml/surrogate.hpp"

namespace chem = impeccable::chem;
namespace ml = impeccable::ml;

int main() {
  const std::size_t compounds = 400;
  const std::size_t per_shard = 50;
  const std::size_t window = 128;

  const auto dir =
      std::filesystem::temp_directory_path() / "impeccable_sharded_inference";
  std::filesystem::remove_all(dir);
  const auto written = chem::spill_generated_library(
      "ULT", compounds, 911, dir.string(), {}, per_shard);
  std::printf("store: %zu ligands written in %zu-ligand shards\n",
              written.records, per_shard);

  // Bit rot in one shard file.
  {
    std::ofstream f(dir / "shard-00002.imls",
                    std::ios::binary | std::ios::trunc);
    f << "bit rot";
  }

  auto store = chem::LigandStore::open(dir.string());
  const chem::StoreStats stats = store.stats();
  std::printf("reopened: %zu shard(s) ok, %zu skipped, %zu ligands left\n",
              stats.shards_ok, stats.shards_skipped, stats.records);
  const chem::MmapSource source(std::move(store));

  // A deployment would load_weights() a trained surrogate; deterministic
  // fresh weights keep the example self-contained.
  const ml::SurrogateModel model;
  auto spill = ml::ScoreSpill::in_memory(source.size());
  ml::StreamingTopK topk(5);
  // Featurization and predict_batch fan out over the installed compute pool
  // (one worker per core).
  impeccable::common::ThreadPool pool;
  ml::set_compute_pool(&pool);
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t scored = ml::score_ligands(source, model, 0, source.size(),
                                               window, &spill, &topk);
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ml::set_compute_pool(nullptr);
  std::printf("inference: %zu ligands scored on %zu workers in %.2f s "
              "(%.0f ligands/s)\n",
              scored, pool.size(), dt, scored / dt);

  std::printf("\ntop-5 predicted binders:\n");
  for (const auto& c : topk.take_sorted())
    std::printf("  %s  score %.3f\n", source.id(c.index).c_str(), c.score);

  std::filesystem::remove_all(dir);
  const std::size_t intact = compounds - per_shard;
  if (stats.shards_skipped != 1 || scored != intact) {
    std::fprintf(stderr,
                 "FAIL: expected 1 skipped shard and %zu scored ligands\n",
                 intact);
    return 1;
  }
  return 0;
}

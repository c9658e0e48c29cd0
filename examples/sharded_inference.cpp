// ML1 deployment pipeline (Sec. 6.1.1): generate a compound library
// straight into the on-disk LigandStore (the out-of-core SMILES format),
// depict it through a lazy MmapSource, shard the depictions into compressed
// files, then run distributed inference — rank-partitioned shards, a
// prefetching loader thread per rank feeding the surrogate through a
// bounded queue, resilience to corrupt shards, and a rank-0 gather of
// (ligand, score) pairs.
//
//   $ ./examples/sharded_inference

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "impeccable/chem/ligand_source.hpp"
#include "impeccable/ml/shards.hpp"

namespace chem = impeccable::chem;
namespace ml = impeccable::ml;

int main() {
  const std::size_t compounds = 400;
  const std::size_t per_shard = 50;

  // Spill the generated library to a LigandStore and read it back through
  // the mmap'd source — the campaign engine's out-of-core data path.
  const auto store_dir =
      std::filesystem::temp_directory_path() / "impeccable_example_store";
  std::filesystem::remove_all(store_dir);
  chem::spill_generated_library("ULT", compounds, 911, store_dir.string());
  auto store = chem::LigandStore::open(store_dir.string());
  std::printf("store: %zu ligands in %zu shard(s), %zu skipped\n",
              store.size(), store.stats().shards_ok,
              store.stats().shards_skipped);
  const chem::MmapSource source(std::move(store));

  std::vector<chem::Image> images;
  source.images(0, source.size(), images);
  std::vector<ml::ShardRecord> records;
  std::size_t raw_bytes = 0;
  for (std::size_t i = 0; i < source.size(); ++i) {
    records.push_back({source.id(i), std::move(images[i])});
    raw_bytes += records.back().image.data.size();  // uint8-quantized size
  }

  const auto dir = std::filesystem::temp_directory_path() / "impeccable_shards";
  std::filesystem::remove_all(dir);
  const auto paths = ml::write_shards(records, per_shard, dir.string());

  std::size_t disk_bytes = 0;
  for (const auto& p : paths) disk_bytes += std::filesystem::file_size(p);
  std::printf("dataset: %zu ligands -> %zu shards, compression %.1fx "
              "(paper reports 14.2x with gzip)\n",
              compounds, paths.size(),
              static_cast<double>(raw_bytes) / disk_bytes);

  // Corrupt one shard to demonstrate resilience.
  {
    std::ofstream f(paths[2], std::ios::binary | std::ios::trunc);
    f << "bit rot";
  }

  const auto t0 = std::chrono::steady_clock::now();
  ml::InferenceOptions iopts;
  iopts.ranks = 4;
  const auto out = ml::run_sharded_inference(paths, {}, iopts);
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  std::printf("inference: %zu ligands scored on %d ranks in %.2f s "
              "(%.0f ligands/s); %zu shard(s) skipped after IO errors\n",
              out.scores.size(), iopts.ranks, dt, out.scores.size() / dt,
              out.shards_failed);

  std::printf("\ntop-5 predicted binders:\n");
  auto ranked = out.scores;
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (std::size_t i = 0; i < 5 && i < ranked.size(); ++i)
    std::printf("  %s  score %.3f\n", ranked[i].first.c_str(), ranked[i].second);

  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(store_dir);
  return 0;
}

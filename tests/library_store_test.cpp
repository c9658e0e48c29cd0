// Out-of-core ligand library tests: the LigandStore shard format (round
// trip, dedup, corruption resilience), the LigandSource backends (bitwise
// featurization and campaign-fingerprint equality between InMemorySource
// and MmapSource), the external-memory streaming top-k determinism
// contract, and the enrichment-denominator regression.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "impeccable/chem/ligand_source.hpp"
#include "impeccable/chem/store.hpp"
#include "impeccable/core/campaign.hpp"
#include "impeccable/core/checkpoint.hpp"
#include "impeccable/common/rng.hpp"
#include "impeccable/ml/streaming.hpp"

namespace chem = impeccable::chem;
namespace core = impeccable::core;
namespace fe = impeccable::fe;
namespace ml = impeccable::ml;

namespace {

std::filesystem::path tmp_dir(const std::string& name) {
  return std::filesystem::temp_directory_path() / name;
}

/// A slim two-iteration campaign config (mirrors core_test's tiny_config).
core::CampaignConfig slim_config() {
  core::CampaignConfig cfg;
  cfg.library_size = 60;
  cfg.iterations = 2;
  cfg.bootstrap_docks = 12;
  cfg.dock_top_fraction = 0.2;
  cfg.cg_compounds = 3;
  cfg.top_binders = 2;
  cfg.outliers_per_binder = 2;
  cfg.dock.runs = 1;
  cfg.dock.lga.population = 16;
  cfg.dock.lga.generations = 6;
  cfg.esmacs_cg = fe::cg_config(0.3);
  cfg.esmacs_cg.replicas = 3;
  cfg.esmacs_fg = fe::fg_config(0.1);
  cfg.esmacs_fg.replicas = 4;
  cfg.surrogate.epochs = 3;
  cfg.aae.epochs = 3;
  cfg.seed = 23;
  cfg.featurize_window = 17;  // deliberately not a divisor of 60
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------------------
// Store format

TEST(LigandStore, WriterReaderRoundTrip) {
  const auto dir = tmp_dir("imp_store_roundtrip");
  std::filesystem::remove_all(dir);
  {
    chem::StoreWriterOptions opts;
    opts.records_per_shard = 7;  // force multiple shards
    chem::LigandStoreWriter w(dir.string(), opts);
    for (int i = 0; i < 20; ++i)
      w.append("LIG-" + std::to_string(i), std::string(i % 5 + 2, 'C'));
    w.finish();
    EXPECT_EQ(w.stats().records, 20u);
  }
  auto store = chem::LigandStore::open(dir.string());
  ASSERT_EQ(store.size(), 20u);
  EXPECT_EQ(store.stats().shards_ok, 3u);  // 7 + 7 + 6
  EXPECT_EQ(store.stats().shards_skipped, 0u);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(store.id(i), "LIG-" + std::to_string(i));
    EXPECT_EQ(store.smiles(i), std::string(i % 5 + 2, 'C'));
  }
  // (shard, offset) addressing round-trips through locate/index_of.
  for (std::size_t i = 0; i < 20; ++i)
    EXPECT_EQ(store.index_of(store.locate(i)), i);
  EXPECT_EQ(store.index_of({99, 0}), store.size());  // unknown shard
  std::filesystem::remove_all(dir);
}

TEST(LigandStore, EmptyDirectoryYieldsEmptyStore) {
  const auto dir = tmp_dir("imp_store_empty");
  std::filesystem::remove_all(dir);
  auto store = chem::LigandStore::open(dir.string());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.stats().shards_ok, 0u);
}

TEST(LigandStore, WriterDedupDropsDuplicateDigests) {
  const auto dir = tmp_dir("imp_store_dedup");
  std::filesystem::remove_all(dir);
  chem::StoreWriterOptions opts;
  opts.dedup = true;
  chem::LigandStoreWriter w(dir.string(), opts);
  EXPECT_TRUE(w.append("A", "CCO"));
  EXPECT_TRUE(w.append("B", "CCCN"));
  EXPECT_FALSE(w.append("C", "CCO"));  // same canonical digest
  EXPECT_TRUE(w.append("D", "CCCCO"));
  w.finish();
  EXPECT_EQ(w.stats().records, 3u);
  EXPECT_EQ(w.stats().duplicates_dropped, 1u);
  auto store = chem::LigandStore::open(dir.string());
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.id(2), "D");
  std::filesystem::remove_all(dir);
}

TEST(LigandStore, WriterRejectsZeroRecordsPerShard) {
  chem::StoreWriterOptions opts;
  opts.records_per_shard = 0;
  EXPECT_THROW(chem::LigandStoreWriter(tmp_dir("imp_store_zero").string(),
                                       opts),
               std::invalid_argument);
}

namespace {

/// A hand-built one-record shard: 64-byte header, 8 payload bytes whose
/// record claims 0xffff-byte id and SMILES fields, one u64 index entry at
/// file offset 72, and a valid body checksum — so only the declared
/// `payload_bytes` and the index entry `record_offset` decide whether a
/// reader stays inside the 80-byte file.
void write_crafted_shard(const std::filesystem::path& path,
                         std::uint64_t payload_bytes,
                         std::uint64_t record_offset) {
  std::uint8_t bytes[80] = {};
  const auto put_u64 = [&](std::size_t at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  std::memcpy(bytes, "IMPLIG01", 8);
  bytes[8] = 1;                  // version
  put_u64(16, 1);                // record count
  put_u64(24, payload_bytes);
  put_u64(32, 72);               // index offset
  put_u64(40, sizeof bytes);     // file bytes
  for (int i = 0; i < 4; ++i) bytes[64 + i] = 0xff;  // id_len, smiles_len
  put_u64(72, record_offset);
  put_u64(48, chem::fnv1a64(bytes + 64, sizeof bytes - 64));
  std::ofstream(path, std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes), sizeof bytes);
}

}  // namespace

// Corruption resilience: damaged shards are skipped and counted, never
// fatal, intact shards keep serving, and ML1 scores the survivors exactly
// as it scores the same ligands from an undamaged store.
TEST(LigandStore, CorruptShardsAreSkippedAndCounted) {
  const auto dir = tmp_dir("imp_store_corrupt");
  std::filesystem::remove_all(dir);
  const auto lib = chem::generate_library("COR", 20, 31);
  {
    chem::StoreWriterOptions opts;
    opts.records_per_shard = 5;
    chem::LigandStoreWriter w(dir.string(), opts);
    for (int i = 0; i < 20; ++i)
      w.append("LIG-" + std::to_string(i), lib.entries[i].smiles);
    w.finish();
  }

  ml::SurrogateOptions mopts;
  mopts.epochs = 1;
  const ml::SurrogateModel model(mopts);
  std::vector<float> intact(20);
  {
    const chem::MmapSource source(chem::LigandStore::open(dir.string()));
    auto spill = ml::ScoreSpill::in_memory(source.size());
    ASSERT_EQ(ml::score_ligands(source, model, 0, source.size(), 8, &spill),
              20u);
    spill.read(0, intact.data(), intact.size());
  }

  // Truncated shard: chop the last shard mid-index.
  {
    const auto path = dir / "shard-00003.imls";
    const auto bytes = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, bytes - 9);
  }
  // Torn header: shard shorter than the fixed header.
  {
    std::ofstream f(dir / "shard-00001.imls",
                    std::ios::binary | std::ios::trunc);
    f << "torn";
  }
  // Bad checksum: flip one payload byte of an otherwise intact shard.
  {
    std::fstream f(dir / "shard-00002.imls",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(70);
    f.put('\xff');
  }
  // Hostile header: payload_bytes = 2^64 - 32, so kHeaderBytes +
  // payload_bytes wraps to 32, below the declared index offset of 72.
  write_crafted_shard(dir / "shard-00004.imls", ~std::uint64_t{31}, 0);

  auto store = chem::LigandStore::open(dir.string());
  EXPECT_EQ(store.stats().shards_ok, 1u);
  EXPECT_EQ(store.stats().shards_skipped, 4u);
  ASSERT_EQ(store.size(), 5u);  // shard 0 survived
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(store.id(i), "LIG-" + std::to_string(i));

  // ML1 over the damaged store scores every survivor, bitwise equal to the
  // intact store's score for the same ligand.
  const chem::MmapSource source(std::move(store));
  auto spill = ml::ScoreSpill::in_memory(source.size());
  EXPECT_EQ(ml::score_ligands(source, model, 0, source.size(), 8, &spill),
            source.size());
  for (std::size_t i = 0; i < source.size(); ++i) {
    const std::size_t original = std::stoul(source.id(i).substr(4));
    EXPECT_EQ(spill.at(i), intact[original]) << source.id(i);
  }
  std::filesystem::remove_all(dir);
}

// A structurally valid shard whose checksummed index entry is forged to
// 2^64 - 4: a bounds check written as `off + 4 <= payload_bytes` wraps to 0
// and reads the header as a record. Reads must throw instead, and release()
// must stay inside the mapping.
TEST(LigandStore, ForgedIndexOffsetThrowsInsteadOfReading) {
  const auto dir = tmp_dir("imp_store_forged_index");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  write_crafted_shard(dir / "shard-00000.imls", 8, ~std::uint64_t{3});
  // Control: the same shard with a genuine offset opens and reads, but its
  // record overruns the 8-byte payload.
  write_crafted_shard(dir / "shard-00001.imls", 8, 0);

  const auto store = chem::LigandStore::open(dir.string());
  ASSERT_EQ(store.stats().shards_ok, 2u);
  ASSERT_EQ(store.size(), 2u);
  EXPECT_THROW((void)store.id(0), std::runtime_error);
  EXPECT_THROW((void)store.smiles(1), std::runtime_error);
  store.release(0, store.size());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Sources

TEST(LigandSource, MmapMatchesInMemoryBitwise) {
  const auto dir = tmp_dir("imp_source_equal");
  std::filesystem::remove_all(dir);
  const std::size_t n = 40;
  chem::SourceOptions sopts;
  sopts.protonate_ph = 7.4;  // exercise the prep step in both backends

  chem::spill_generated_library("EQL", n, 77, dir.string());
  const chem::MmapSource lazy(chem::LigandStore::open(dir.string()), sopts);
  const chem::InMemorySource eager(chem::generate_library("EQL", n, 77),
                                   sopts);

  ASSERT_EQ(lazy.size(), n);
  ASSERT_EQ(eager.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(lazy.id(i), eager.id(i));
    EXPECT_EQ(lazy.smiles(i), eager.smiles(i));
    const chem::Image a = lazy.image(i);
    const chem::Image b = eager.image(i);
    ASSERT_EQ(a.data.size(), b.data.size());
    // Bitwise: the identical featurization pipeline must produce identical
    // floats, not merely close ones.
    EXPECT_TRUE(std::equal(a.data.begin(), a.data.end(), b.data.begin()))
        << "depiction diverged at ligand " << i;
  }
  // Window + release path serves the same bytes as per-ligand access.
  std::vector<chem::Image> window;
  lazy.images(10, 25, window);
  lazy.release(10, 25);
  ASSERT_EQ(window.size(), 15u);
  for (std::size_t i = 0; i < window.size(); ++i) {
    const chem::Image b = eager.image(10 + i);
    EXPECT_TRUE(std::equal(window[i].data.begin(), window[i].data.end(),
                           b.data.begin()));
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Streaming selection

TEST(StreamingTopK, MatchesFullSortWithDeterministicTies) {
  impeccable::common::Rng rng(404);
  std::vector<float> scores(5000);
  // Coarse quantization forces plenty of exact ties.
  for (auto& s : scores)
    s = static_cast<float>(rng.index(32)) / 32.0f;

  std::vector<ml::TopCandidate> all(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i)
    all[i] = {scores[i], i};
  std::sort(all.begin(), all.end(), ml::candidate_better);

  const std::size_t k = 137;
  ml::StreamingTopK topk(k);
  for (std::size_t i = 0; i < scores.size(); ++i) topk.offer(scores[i], i);
  const auto got = topk.take_sorted();
  ASSERT_EQ(got.size(), k);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(got[i].index, all[i].index);
    EXPECT_EQ(got[i].score, all[i].score);
  }

  // Partitioned accumulation + merge gives the exact same selection, no
  // matter how the stream was split.
  std::vector<std::vector<ml::TopCandidate>> parts;
  for (std::size_t lo = 0; lo < scores.size(); lo += 911) {
    ml::StreamingTopK part(k);
    for (std::size_t i = lo; i < std::min(scores.size(), lo + 911); ++i)
      part.offer(scores[i], i);
    parts.push_back(part.take_sorted());
  }
  const auto merged = ml::StreamingTopK::merge_sorted(std::move(parts), k);
  ASSERT_EQ(merged.size(), k);
  for (std::size_t i = 0; i < k; ++i)
    EXPECT_EQ(merged[i].index, got[i].index);
}

TEST(ScoreSpill, FileBackedMatchesInMemory) {
  const auto path = tmp_dir("imp_spill_test.f32");
  std::filesystem::remove_all(path);
  const std::size_t n = 1000;
  auto mem = ml::ScoreSpill::in_memory(n);
  auto file = ml::ScoreSpill::file_backed(n, path.string());
  EXPECT_TRUE(file.file_backed_storage());

  impeccable::common::Rng rng(7);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform());
  // Windowed writes covering the range out of order.
  mem.write(500, v.data() + 500, 500);
  mem.write(0, v.data(), 500);
  file.write(500, v.data() + 500, 500);
  file.write(0, v.data(), 500);

  for (std::size_t i = 0; i < n; i += 97)
    EXPECT_EQ(mem.at(i), file.at(i));
  std::vector<float> a(n), b(n);
  mem.read(0, a.data(), n);
  file.read(0, b.data(), n);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, v);

  // select_top_k over either backend gives the same exact selection.
  const auto ta = ml::select_top_k(mem, 25, 64);
  const auto tb = ml::select_top_k(file, 25, 64);
  ASSERT_EQ(ta.size(), 25u);
  for (std::size_t i = 0; i < ta.size(); ++i)
    EXPECT_EQ(ta[i].index, tb[i].index);
  // The spill file is owned: destruction unlinks it (checked after scope).
}

TEST(ScoreStreaming, WindowSizeNeverChangesScores) {
  const std::size_t n = 30;
  chem::SourceOptions sopts;
  const chem::InMemorySource source(chem::generate_library("WND", n, 3), sopts);
  ml::SurrogateOptions mopts;
  mopts.epochs = 1;
  const ml::SurrogateModel model(mopts);

  auto spill_a = ml::ScoreSpill::in_memory(n);
  auto spill_b = ml::ScoreSpill::in_memory(n);
  ml::score_ligands(source, model, 0, n, 7, &spill_a);
  ml::score_ligands(source, model, 0, n, n, &spill_b);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(spill_a.at(i), spill_b.at(i)) << "window-dependent score " << i;
}

// ---------------------------------------------------------------------------
// Campaign integration

TEST(LibraryBackend, ScienceFingerprintIdenticalAcrossBackends) {
  const auto dir = tmp_dir("imp_backend_fp_store");
  std::filesystem::remove_all(dir);

  auto in_mem_cfg = slim_config();
  auto mmap_cfg = slim_config();
  mmap_cfg.library_backend = core::ExecConfig::LibraryBackend::kMmapStore;
  mmap_cfg.library_store_dir = dir.string();

  core::Campaign a(core::Target::make("3CL-like", 42, 40, 21), in_mem_cfg);
  const auto report_a = a.run();
  core::Campaign b(core::Target::make("3CL-like", 42, 40, 21), mmap_cfg);
  const auto report_b = b.run();

  // The tentpole guarantee: the out-of-core path is a pure execution
  // concern — byte-identical science.
  EXPECT_EQ(report_a.science_fingerprint(), report_b.science_fingerprint());
  std::filesystem::remove_all(dir);
}

TEST(LibraryBackend, EnrichmentDenominatorIsLibrarySizeEveryIteration) {
  // Regression for the fg_esmacs fallback that substituted `docked` for an
  // unstamped library_screened: the denominator of effective ligands per
  // second is the full library on every iteration, warm-up included.
  auto cfg = slim_config();
  cfg.iterations = 2;
  core::Campaign c(core::Target::make("Den", 9, 30, 15), cfg);
  const auto report = c.run();
  ASSERT_EQ(report.iterations.size(), 2u);
  for (const auto& it : report.iterations) {
    EXPECT_EQ(it.library_screened, cfg.library_size);
    EXPECT_GT(it.docked, 0u);
    EXPECT_LT(it.docked, it.library_screened);
  }
}

TEST(LibraryBackend, CheckpointResumeThroughMmapStore) {
  const auto dir = tmp_dir("imp_backend_resume_store");
  const auto ckpt = tmp_dir("imp_backend_resume.csv");
  std::filesystem::remove_all(dir);
  std::filesystem::remove(ckpt);

  auto leg = slim_config();
  leg.iterations = 1;
  leg.library_backend = core::ExecConfig::LibraryBackend::kMmapStore;
  leg.library_store_dir = dir.string();

  core::Campaign first(core::Target::make("RSM", 5, 30, 15), leg);
  const auto rep1 = first.run();
  core::write_checkpoint(rep1, ckpt.string());
  std::size_t docked1 = 0;
  for (const auto& [id, rec] : rep1.compounds)
    if (rec.docked) ++docked1;
  ASSERT_GT(docked1, 0u);

  // Same seed -> identical bootstrap picks -> nothing re-docks; the
  // restored records came back through the id->ordinal map built in one
  // store scan.
  auto leg2 = leg;
  leg2.resume_checkpoint = ckpt.string();
  core::Campaign second(core::Target::make("RSM", 5, 30, 15), leg2);
  const auto rep2 = second.run();
  EXPECT_EQ(rep2.iterations[0].docked, 0u);
  std::size_t restored = 0;
  for (const auto& [id, rec] : rep2.compounds)
    if (rec.docked) ++restored;
  EXPECT_EQ(restored, docked1);

  std::filesystem::remove(ckpt);
  std::filesystem::remove_all(dir);
}

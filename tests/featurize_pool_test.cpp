// Parallel featurization tests: LigandSource::images and the InMemorySource
// constructor fan SMILES parse + depiction out over a common::ThreadPool.
// Every image is a pure function of (SMILES, SourceOptions), so the pooled
// output must be bitwise identical to the serial image(i) loop at any pool
// size, including over an uneven last window, and a malformed SMILES must
// raise the same exception the serial loop raises (the lowest failing
// index). depict_into must not depend on what its output buffer held.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "impeccable/chem/depiction.hpp"
#include "impeccable/chem/layout.hpp"
#include "impeccable/chem/library.hpp"
#include "impeccable/chem/ligand_source.hpp"
#include "impeccable/chem/smiles.hpp"
#include "impeccable/chem/store.hpp"
#include "impeccable/common/thread_pool.hpp"
#include "impeccable/ml/gemm.hpp"
#include "impeccable/ml/streaming.hpp"
#include "impeccable/ml/surrogate.hpp"
#include "impeccable/obs/recorder.hpp"

namespace chem = impeccable::chem;
namespace common = impeccable::common;
namespace ml = impeccable::ml;
namespace obs = impeccable::obs;

namespace {

constexpr std::size_t kLigands = 53;
constexpr std::size_t kWindow = 16;  // 53 = 3 * 16 + 5: uneven last window
constexpr std::uint64_t kSeed = 4242;

bool same_image(const chem::Image& a, const chem::Image& b) {
  return a.channels == b.channels && a.height == b.height &&
         a.width == b.width && a.data.size() == b.data.size() &&
         std::memcmp(a.data.data(), b.data.data(),
                     a.data.size() * sizeof(float)) == 0;
}

chem::SourceOptions source_options() {
  chem::SourceOptions opts;
  opts.protonate_ph = 7.4;  // exercise the whole prepare pipeline
  return opts;
}

/// A store holding `smiles` in order, one record each, in a fresh directory
/// private to this process.
class StoreDir {
 public:
  StoreDir(const std::string& name, const std::vector<std::string>& smiles)
      : path_(std::filesystem::temp_directory_path() /
              (name + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    chem::StoreWriterOptions wopts;
    wopts.records_per_shard = 20;  // several shards
    chem::LigandStoreWriter writer(path_.string(), wopts);
    for (std::size_t i = 0; i < smiles.size(); ++i)
      writer.append("L-" + std::to_string(i), smiles[i]);
    writer.finish();
  }
  ~StoreDir() { std::filesystem::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

std::vector<std::string> library_smiles() {
  std::vector<std::string> out;
  const chem::CompoundLibrary lib =
      chem::generate_library("FZP", kLigands, kSeed);
  for (const auto& entry : lib.entries) out.push_back(entry.smiles);
  return out;
}

/// images() over every window, with and without pools of 1, 2 and 4
/// workers, equals the serial image(i) of each ligand.
void expect_windows_match_serial(const chem::LigandSource& source) {
  std::vector<chem::Image> serial;
  for (std::size_t i = 0; i < source.size(); ++i)
    serial.push_back(source.image(i));

  std::unique_ptr<common::ThreadPool> pools[] = {
      nullptr, std::make_unique<common::ThreadPool>(1),
      std::make_unique<common::ThreadPool>(2),
      std::make_unique<common::ThreadPool>(4)};
  for (const auto& pool : pools) {
    const std::size_t workers = pool ? pool->size() : 0;
    std::vector<chem::Image> window;  // reused across windows, as in ML1
    for (std::size_t b = 0; b < source.size(); b += kWindow) {
      const std::size_t e = std::min(source.size(), b + kWindow);
      source.images(b, e, window, pool.get());
      ASSERT_EQ(window.size(), e - b);
      for (std::size_t k = 0; k < window.size(); ++k)
        EXPECT_TRUE(same_image(window[k], serial[b + k]))
            << "ligand " << b + k << " with " << workers << " workers";
    }
  }
}

}  // namespace

TEST(FeaturizePool, InMemoryImagesMatchSerialAtAnyPoolSize) {
  const chem::InMemorySource source(
      chem::generate_library("FZP", kLigands, kSeed), source_options());
  expect_windows_match_serial(source);
}

TEST(FeaturizePool, MmapImagesMatchSerialAtAnyPoolSize) {
  const StoreDir dir("imp_featurize_pool_store", library_smiles());
  const chem::MmapSource source(chem::LigandStore::open(dir.str()),
                                source_options());
  ASSERT_EQ(source.size(), kLigands);
  expect_windows_match_serial(source);
}

TEST(FeaturizePool, InMemorySourceBuiltOnPoolMatchesSerialBuild) {
  const chem::InMemorySource serial(
      chem::generate_library("FZP", kLigands, kSeed), source_options());
  common::ThreadPool pool(4);
  const chem::InMemorySource pooled(
      chem::generate_library("FZP", kLigands, kSeed), source_options(), &pool);
  ASSERT_EQ(pooled.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(same_image(pooled.image(i), serial.image(i))) << i;
    EXPECT_EQ(chem::write_smiles(pooled.molecule(i)),
              chem::write_smiles(serial.molecule(i)))
        << i;
  }
}

TEST(FeaturizePool, DepictIntoIgnoresPriorBufferContents) {
  const chem::Molecule mol = chem::parse_smiles("c1ccc(cc1)C(=O)NCCBr");
  chem::DepictionOptions opts;
  const chem::Image fresh = chem::depict(mol, opts);

  chem::Image larger;  // wrong shape, too many pixels, all dirty
  larger.channels = 1;
  larger.height = 3;
  larger.width = 7;
  larger.data.assign(fresh.data.size() * 2, 0.75f);
  chem::depict_into(mol, opts, larger);
  EXPECT_TRUE(same_image(larger, fresh));

  chem::Image smaller;  // too few pixels, dirty
  smaller.data.assign(5, -1.0f);
  chem::depict_into(mol, opts, smaller);
  EXPECT_TRUE(same_image(smaller, fresh));

  // Re-rendering a different molecule into a used buffer leaves no trace of
  // the first one.
  chem::Image reused = chem::depict(chem::parse_smiles("CCO"), opts);
  chem::depict_into(mol, opts, reused);
  EXPECT_TRUE(same_image(reused, fresh));
}

TEST(FeaturizePool, MalformedSmilesMidWindowThrowsLikeSerialLoop) {
  // Two distinct malformed records inside one window: the error raised must
  // be the one for the lower index, at every pool size.
  std::vector<std::string> smiles = library_smiles();
  smiles[21] = "CC(C";
  smiles[37] = "C1CCCC";
  const auto parse_error = [](const std::string& s) {
    try {
      chem::parse_smiles(s);
    } catch (const chem::SmilesError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const std::string expected = parse_error(smiles[21]);
  ASSERT_FALSE(expected.empty());
  ASSERT_NE(parse_error(smiles[37]), expected);  // the two are told apart

  const StoreDir dir("imp_featurize_pool_bad_store", smiles);
  const chem::MmapSource source(chem::LigandStore::open(dir.str()),
                                source_options());
  std::unique_ptr<common::ThreadPool> pools[] = {
      nullptr, std::make_unique<common::ThreadPool>(1),
      std::make_unique<common::ThreadPool>(2),
      std::make_unique<common::ThreadPool>(4)};
  for (const auto& pool : pools) {
    std::vector<chem::Image> window;
    try {
      source.images(0, source.size(), window, pool.get());
      ADD_FAILURE() << "images() accepted a malformed SMILES";
    } catch (const chem::SmilesError& e) {
      EXPECT_EQ(std::string(e.what()), expected)
          << (pool ? pool->size() : 0) << " workers";
    }
  }

  // The eager source surfaces the same error from its constructor.
  chem::CompoundLibrary lib = chem::generate_library("FZP", kLigands, kSeed);
  lib.entries[21].smiles = smiles[21];
  lib.entries[37].smiles = smiles[37];
  common::ThreadPool pool(4);
  try {
    const chem::InMemorySource eager(lib, source_options(), &pool);
    ADD_FAILURE() << "InMemorySource accepted a malformed SMILES";
  } catch (const chem::SmilesError& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
}

TEST(FeaturizePool, RejectsBadWindow) {
  const chem::InMemorySource source(
      chem::generate_library("FZP", 4, kSeed), source_options());
  common::ThreadPool pool(2);
  std::vector<chem::Image> out;
  EXPECT_THROW(source.images(3, 2, out, &pool), std::out_of_range);
  EXPECT_THROW(source.images(0, 5, out, &pool), std::out_of_range);
  source.images(2, 2, out, &pool);
  EXPECT_TRUE(out.empty());
}

TEST(FeaturizePool, ScoreLigandsOnComputePoolMatchesSerialAndCounts) {
  const StoreDir dir("imp_featurize_pool_score_store", library_smiles());
  const chem::MmapSource source(chem::LigandStore::open(dir.str()),
                                source_options());
  const ml::SurrogateModel model;

  ml::ScoreSpill serial = ml::ScoreSpill::in_memory(kLigands);
  ml::score_ligands(source, model, 0, kLigands, kWindow, &serial);

  obs::Recorder rec;
  ml::ScoreSpill pooled = ml::ScoreSpill::in_memory(kLigands);
  {
    common::ThreadPool pool(4);
    ml::set_compute_pool(&pool);
    obs::ScopedRecorder installed(&rec);
    ml::score_ligands(source, model, 0, kLigands, kWindow, &pooled);
    ml::set_compute_pool(nullptr);
  }
  for (std::size_t i = 0; i < kLigands; ++i) {
    const float a = serial.at(i);
    const float b = pooled.at(i);
    EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << i;
  }
  // One add per window: 53 ligands in windows of 16 is 4 windows.
  EXPECT_EQ(rec.metrics().counter("ml.score.ligands").value(), kLigands);
  EXPECT_EQ(rec.metrics().counter("ml.score.windows").value(), 4u);
}

TEST(Layout, Layout2dAndEmbed3dMatchRecordedDigest) {
  // FNV-1a-64 of layout_2d's coordinates over 2000 generated molecules and
  // of embed_3d's over the first 200, recorded from the default
  // (RelWithDebInfo) build. Every depiction and every docking ligand starts
  // from these coordinates, so a rewrite of the layout, or a build flag,
  // that moves one bit fails here.
  const chem::CompoundLibrary lib = chem::generate_library("LAY", 2000, 0x1a70);
  std::uint64_t flat = chem::kFnvOffset64, embedded = chem::kFnvOffset64;
  for (std::size_t i = 0; i < lib.size(); ++i) {
    const chem::Molecule mol = chem::parse_smiles(lib.entries[i].smiles);
    const std::vector<chem::Point2> pos = chem::layout_2d(mol);
    for (const chem::Point2& p : pos) {
      flat = chem::fnv1a64(&p.x, sizeof p.x, flat);
      flat = chem::fnv1a64(&p.y, sizeof p.y, flat);
    }
    if (i >= 200) continue;
    for (const auto& v : chem::embed_3d(mol)) {
      embedded = chem::fnv1a64(&v.x, sizeof v.x, embedded);
      embedded = chem::fnv1a64(&v.y, sizeof v.y, embedded);
      embedded = chem::fnv1a64(&v.z, sizeof v.z, embedded);
    }
  }
  EXPECT_EQ(flat, 0x0e1f0ef9acdee8b9ULL);
  EXPECT_EQ(embedded, 0x2d8d027e7bd902e5ULL);
}

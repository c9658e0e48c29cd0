// Tests for campaign checkpointing, resume, and the CSV interchange.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "impeccable/core/campaign.hpp"
#include "impeccable/core/checkpoint.hpp"

namespace core = impeccable::core;
namespace fe = impeccable::fe;

namespace {

core::CampaignConfig mini_config(int iterations) {
  core::CampaignConfig cfg;
  cfg.library_size = 40;
  cfg.iterations = iterations;
  cfg.bootstrap_docks = 10;
  cfg.dock_top_fraction = 0.3;
  cfg.cg_compounds = 2;
  cfg.top_binders = 1;
  cfg.outliers_per_binder = 1;
  cfg.dock.runs = 1;
  cfg.dock.lga.population = 12;
  cfg.dock.lga.generations = 4;
  cfg.esmacs_cg = fe::cg_config(0.2);
  cfg.esmacs_cg.replicas = 2;
  cfg.esmacs_fg = fe::fg_config(0.05);
  cfg.esmacs_fg.replicas = 2;
  cfg.surrogate.epochs = 2;
  cfg.aae.epochs = 2;
  cfg.seed = 77;
  return cfg;
}

std::filesystem::path tmp(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

}  // namespace

TEST(Checkpoint, RoundTripsRecords) {
  core::CampaignReport report;
  core::CompoundRecord a;
  a.id = "X-1";
  a.smiles = "CCO";
  a.surrogate_score = 0.7;
  a.docked = true;
  a.dock_score = -42.5;
  a.cg_done = true;
  a.cg_energy = -30.25;
  a.cg_error = 0.5;
  a.fg_energies = {-35.0, -33.5};
  core::CompoundRecord b;
  b.id = "X-2";
  b.smiles = "c1ccccc1";
  report.compounds = {{a.id, a}, {b.id, b}};

  const auto path = tmp("imp_ckpt.csv");
  core::write_checkpoint(report, path.string());
  const auto back = core::read_checkpoint(path.string());

  ASSERT_EQ(back.size(), 2u);
  const auto& ra = back.at("X-1");
  EXPECT_EQ(ra.smiles, "CCO");
  EXPECT_TRUE(ra.docked);
  EXPECT_DOUBLE_EQ(ra.dock_score, -42.5);
  EXPECT_TRUE(ra.cg_done);
  EXPECT_DOUBLE_EQ(ra.cg_energy, -30.25);
  ASSERT_EQ(ra.fg_energies.size(), 2u);
  EXPECT_DOUBLE_EQ(ra.fg_energies[1], -33.5);
  const auto& rb = back.at("X-2");
  EXPECT_FALSE(rb.docked);
  EXPECT_TRUE(rb.fg_energies.empty());
  std::filesystem::remove(path);
}

TEST(Checkpoint, RoundTripsDoublesBitwise) {
  // Values the stream default (6 significant digits) would round: a real
  // dock score, an inexact sum, and a subnormal.
  const double values[] = {-94.23713518273, 0.1 + 0.2,
                           std::numeric_limits<double>::denorm_min(),
                           -3.0e-310};
  core::CampaignReport report;
  core::CompoundRecord rec;
  rec.id = "X-1";
  rec.smiles = "CCO";
  rec.surrogate_score = values[1];
  rec.docked = true;
  rec.dock_score = values[0];
  rec.cg_energy = values[2];
  rec.cg_error = values[3];
  rec.fg_energies = {values[0], values[1], values[2], values[3]};
  report.compounds = {{rec.id, rec}};

  const auto path = tmp("imp_ckpt_exact.csv");
  core::write_checkpoint(report, path.string());
  const auto back = core::read_checkpoint(path.string()).at("X-1");
  const auto bits = [](double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  EXPECT_EQ(bits(back.surrogate_score), bits(rec.surrogate_score));
  EXPECT_EQ(bits(back.dock_score), bits(rec.dock_score));
  EXPECT_EQ(bits(back.cg_energy), bits(rec.cg_energy));
  EXPECT_EQ(bits(back.cg_error), bits(rec.cg_error));
  ASSERT_EQ(back.fg_energies.size(), rec.fg_energies.size());
  for (std::size_t k = 0; k < rec.fg_energies.size(); ++k)
    EXPECT_EQ(bits(back.fg_energies[k]), bits(rec.fg_energies[k])) << k;
  std::filesystem::remove(path);

  // The ML1 -> S1 interchange keeps full precision too.
  core::write_scores_csv({{"A", values[0]}}, {{"A", "CCO"}}, path.string());
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  std::getline(f, line);
  EXPECT_EQ(line, "A,CCO,-94.23713518273");
  std::filesystem::remove(path);
}

TEST(Checkpoint, RejectsMalformedFiles) {
  const auto path = tmp("imp_bad_ckpt.csv");
  {
    std::ofstream f(path);
    f << "wrong,header\n";
  }
  EXPECT_THROW(core::read_checkpoint(path.string()), std::runtime_error);
  {
    std::ofstream f(path);
    f << "id,smiles,surrogate_score,docked,dock_score,cg_done,cg_energy,"
         "cg_error,fg_energies\n";
    f << "X-1,CCO,notanumber,1,2,0,0,0,\n";
  }
  EXPECT_THROW(core::read_checkpoint(path.string()), std::runtime_error);
  std::filesystem::remove(path);
  EXPECT_THROW(core::read_checkpoint("/nonexistent.csv"), std::runtime_error);
}

TEST(Checkpoint, ResumeSkipsFinishedDockingWork) {
  const auto path = tmp("imp_resume.csv");

  // First leg: one iteration.
  core::Target t1 = core::Target::make("R", 5, 30, 15);
  core::Campaign first(std::move(t1), mini_config(1));
  const auto rep1 = first.run();
  core::write_checkpoint(rep1, path.string());
  std::size_t docked1 = 0;
  for (const auto& [id, rec] : rep1.compounds)
    if (rec.docked) ++docked1;
  ASSERT_GT(docked1, 0u);

  // Second leg resumes: with the same seed, the bootstrap set is identical,
  // so no compound is re-docked.
  auto cfg = mini_config(1);
  cfg.resume_checkpoint = path.string();
  core::Target t2 = core::Target::make("R", 5, 30, 15);
  core::Campaign second(std::move(t2), cfg);
  const auto rep2 = second.run();
  EXPECT_EQ(rep2.iterations[0].docked, 0u);

  // Restored records are present with their scores.
  std::size_t restored = 0;
  for (const auto& [id, rec] : rep2.compounds)
    if (rec.docked) ++restored;
  EXPECT_EQ(restored, docked1);
  std::filesystem::remove(path);
}

TEST(Checkpoint, ScoresCsvFormat) {
  const auto path = tmp("imp_scores.csv");
  core::write_scores_csv({{"A", -1.5}, {"B", -2.5}}, {{"A", "CCO"}},
                         path.string());
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "id,smiles,score");
  std::getline(f, line);
  EXPECT_EQ(line, "A,CCO,-1.5");
  std::getline(f, line);
  EXPECT_EQ(line, "B,,-2.5");
  std::filesystem::remove(path);
}

TEST(Checkpoint, FailedWriteKeepsThePreviousCheckpoint) {
  // A write that fails part-way (EFBIG here, from a lowered RLIMIT_FSIZE; a
  // full disk gives ENOSPC) must throw and leave the last good checkpoint in
  // place, not a truncated file whose last row may still parse.
  const auto path = tmp("imp_ckpt_efbig.csv");
  core::CampaignReport good;
  core::CompoundRecord rec;
  rec.id = "X-1";
  rec.smiles = "CCO";
  rec.docked = true;
  rec.dock_score = -94.23713518273;
  rec.fg_energies = {-35.0, 0.1 + 0.2};
  good.compounds = {{rec.id, rec}};
  core::write_checkpoint(good, path.string());
  const std::string before = slurp(path);
  ASSERT_FALSE(before.empty());

  core::CampaignReport big;
  for (int i = 0; i < 4000; ++i) {
    core::CompoundRecord r = rec;
    r.id = "Y-" + std::to_string(i);
    big.compounds.emplace(r.id, r);
  }

  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit low = saved;
  low.rlim_cur = std::min<rlim_t>(16384, saved.rlim_max);
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &low), 0);
  bool threw = false;
  try {
    core::write_checkpoint(big, path.string());
  } catch (const std::runtime_error&) {
    threw = true;
  }
  setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, old_handler);

  EXPECT_TRUE(threw);
  EXPECT_TRUE(slurp(path) == before);
  const auto back = core::read_checkpoint(path.string());
  ASSERT_EQ(back.size(), 1u);
  const auto& r = back.at("X-1");
  EXPECT_EQ(r.dock_score, rec.dock_score);
  EXPECT_EQ(r.fg_energies, rec.fg_energies);
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
  std::filesystem::remove(path);
}

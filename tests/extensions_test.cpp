// Tests for the extension features: EnTK task retries, conformer-ensemble
// and multi-crystal-structure docking, and the multi-structure campaign
// path.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "impeccable/chem/library.hpp"
#include "impeccable/chem/smiles.hpp"
#include "impeccable/core/campaign.hpp"
#include "impeccable/dock/engine.hpp"
#include "impeccable/dock/receptor.hpp"
#include "impeccable/rct/backend.hpp"
#include "impeccable/rct/entk.hpp"

namespace chem = impeccable::chem;
namespace dock = impeccable::dock;
namespace rct = impeccable::rct;
namespace core = impeccable::core;

// ---------------------------------------------------------------- retries

TEST(EntkRetries, FlakyTaskEventuallySucceeds) {
  rct::LocalBackend backend(2);
  rct::AppManagerOptions opts;
  opts.max_retries = 3;
  rct::AppManager mgr(backend, opts);

  std::atomic<int> attempts{0};
  rct::Pipeline p("flaky");
  rct::TaskDescription t;
  t.name = "flaky";
  t.payload = [&] {
    if (attempts.fetch_add(1) < 2) throw std::runtime_error("transient");
  };
  p.add_stage({"s", {t}, nullptr});
  const auto report = mgr.run({std::move(p)});
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_TRUE(report.results[0].ok);
  EXPECT_EQ(attempts.load(), 3);
  EXPECT_EQ(report.retries, 2u);
  EXPECT_EQ(report.failed(), 0u);
}

TEST(EntkRetries, PermanentFailureIsRecordedAfterBudget) {
  rct::LocalBackend backend(2);
  rct::AppManagerOptions opts;
  opts.max_retries = 2;
  rct::AppManager mgr(backend, opts);

  std::atomic<int> attempts{0};
  rct::Pipeline p("dead");
  rct::TaskDescription t;
  t.name = "dead";
  t.payload = [&] {
    attempts.fetch_add(1);
    throw std::runtime_error("permanent");
  };
  p.add_stage({"s", {t}, nullptr});
  const auto report = mgr.run({std::move(p)});
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_FALSE(report.results[0].ok);
  EXPECT_EQ(attempts.load(), 3);  // 1 + 2 retries
  EXPECT_EQ(report.failed(), 1u);
}

TEST(EntkRetries, NoRetriesByDefault) {
  rct::LocalBackend backend(1);
  rct::AppManager mgr(backend);
  std::atomic<int> attempts{0};
  rct::Pipeline p("d");
  rct::TaskDescription t;
  t.payload = [&] {
    attempts.fetch_add(1);
    throw std::runtime_error("x");
  };
  p.add_stage({"s", {t}, nullptr});
  mgr.run({std::move(p)});
  EXPECT_EQ(attempts.load(), 1);
}

// ---------------------------------------------------- conformer ensembles

namespace {

std::shared_ptr<const dock::AffinityGrid> small_grid(std::uint64_t seed) {
  dock::GridOptions gopts;
  gopts.nodes = 21;
  return dock::compute_grid(dock::Receptor::synthesize("G", seed), gopts);
}

dock::DockOptions fast_dock() {
  dock::DockOptions d;
  d.runs = 1;
  d.lga.population = 16;
  d.lga.generations = 6;
  return d;
}

}  // namespace

TEST(ConformerEnsemble, BestOfConformersIsAtLeastSingle) {
  const auto grid = small_grid(3);
  const auto mol = chem::parse_smiles("CCOc1ccccc1CC(=O)N");
  std::vector<double> per_conformer;
  const auto multi = dock::dock_conformer_ensemble(*grid, mol, "L", 4,
                                                   fast_dock(), &per_conformer);
  ASSERT_EQ(per_conformer.size(), 4u);
  const auto single = dock::dock(*grid, mol, "L", fast_dock());
  EXPECT_LE(multi.best_score, single.best_score + 1e-9);
  // The returned best equals the per-conformer minimum.
  EXPECT_DOUBLE_EQ(multi.best_score,
                   *std::min_element(per_conformer.begin(), per_conformer.end()));
}

TEST(ConformerEnsemble, EvaluationsAccumulate) {
  const auto grid = small_grid(4);
  const auto mol = chem::parse_smiles("CCCCO");
  const auto one = dock::dock_conformer_ensemble(*grid, mol, "L", 1, fast_dock());
  const auto three = dock::dock_conformer_ensemble(*grid, mol, "L", 3, fast_dock());
  EXPECT_GT(three.evaluations, 2 * one.evaluations);
}

TEST(MultiStructure, PicksBestAcrossGrids) {
  std::vector<std::shared_ptr<const dock::AffinityGrid>> grids{
      small_grid(10), small_grid(11), small_grid(12)};
  const auto mol = chem::parse_smiles("CC(C)c1ccc(O)cc1");
  int best_structure = -1;
  const auto res = dock::dock_multi_structure(grids, mol, "L", fast_dock(),
                                              &best_structure);
  ASSERT_GE(best_structure, 0);
  ASSERT_LT(best_structure, 3);
  // Re-dock against the winning grid alone reproduces the same score.
  dock::DockOptions sopts = fast_dock();
  sopts.seed = fast_dock().seed ^ (0x9e37 * (static_cast<std::size_t>(best_structure) + 1));
  const auto direct = dock::dock(*grids[static_cast<std::size_t>(best_structure)],
                                 mol, "L", sopts);
  EXPECT_DOUBLE_EQ(res.best_score, direct.best_score);
}

TEST(MultiStructure, RejectsEmptyGridList) {
  const auto mol = chem::parse_smiles("CCO");
  EXPECT_THROW(dock::dock_multi_structure({}, mol, "L"), std::invalid_argument);
}

TEST(MultiStructure, TargetEnsembleBuildsVariants) {
  const auto t = core::Target::make("T", 5, 30, 15, /*crystal_structures=*/3);
  EXPECT_EQ(t.grids.size(), 3u);
  EXPECT_EQ(t.grid.get(), t.grids.front().get());
  // The variants differ (different pocket maps).
  const auto a = t.grids[0]->map(dock::ProbeType::Carbon).sample(t.grids[0]->pocket_center);
  const auto b = t.grids[1]->map(dock::ProbeType::Carbon).sample(t.grids[1]->pocket_center);
  EXPECT_NE(a.value, b.value);
}

// ------------------------------------------------- multi-structure campaign

TEST(CampaignMultiStructure, RunsWithCrystalEnsembleAndConformers) {
  core::CampaignConfig cfg;
  cfg.library_size = 30;
  cfg.iterations = 1;
  cfg.bootstrap_docks = 8;
  cfg.cg_compounds = 2;
  cfg.top_binders = 1;
  cfg.outliers_per_binder = 1;
  cfg.conformers_per_ligand = 2;  // exercised when grids.size() == 1
  cfg.dock.runs = 1;
  cfg.dock.lga.population = 12;
  cfg.dock.lga.generations = 4;
  cfg.esmacs_cg = impeccable::fe::cg_config(0.2);
  cfg.esmacs_cg.replicas = 2;
  cfg.esmacs_fg = impeccable::fe::fg_config(0.05);
  cfg.esmacs_fg.replicas = 2;
  cfg.aae.epochs = 2;

  core::Target target = core::Target::make("multi", 9, 30, 15,
                                           /*crystal_structures=*/2);
  core::Campaign campaign(std::move(target), cfg);
  const auto report = campaign.run();
  ASSERT_EQ(report.iterations.size(), 1u);
  EXPECT_EQ(report.iterations[0].docked, 8u);
  EXPECT_GT(report.iterations[0].fg_runs, 0u);
}

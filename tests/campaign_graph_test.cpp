// Campaign-on-stage-graph tests: science determinism across thread counts,
// backends, and scheduling modes (sequential vs cross-iteration pipelined);
// virtual-time makespan reduction from pipelining; kill-and-resume via the
// periodic checkpoint.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "impeccable/chem/store.hpp"
#include "impeccable/core/campaign.hpp"
#include "impeccable/core/checkpoint.hpp"
#include "impeccable/hpc/machine.hpp"
#include "impeccable/rct/backend.hpp"

namespace chem = impeccable::chem;
namespace core = impeccable::core;
namespace fe = impeccable::fe;
namespace hpc = impeccable::hpc;
namespace rct = impeccable::rct;

namespace {

core::CampaignConfig graph_config() {
  core::CampaignConfig cfg;
  cfg.library_size = 40;
  cfg.iterations = 2;
  cfg.bootstrap_docks = 12;
  cfg.dock_top_fraction = 0.3;
  cfg.cg_compounds = 3;
  cfg.top_binders = 2;
  cfg.outliers_per_binder = 2;
  // Slim down every engine for test speed.
  cfg.dock.runs = 1;
  cfg.dock.lga.population = 12;
  cfg.dock.lga.generations = 5;
  cfg.esmacs_cg = fe::cg_config(0.25);
  cfg.esmacs_cg.replicas = 3;
  cfg.esmacs_fg = fe::fg_config(0.1);
  cfg.esmacs_fg.replicas = 3;
  cfg.surrogate.epochs = 2;
  cfg.aae.epochs = 2;
  cfg.seed = 17;
  cfg.threads = 2;
  return cfg;
}

core::Target graph_target() {
  return core::Target::make("MPro-like", 99, 36, 19);
}

std::string run_fingerprint(const core::CampaignConfig& cfg) {
  core::Campaign campaign(graph_target(), cfg);
  return campaign.run().science_fingerprint();
}

}  // namespace

TEST(CampaignGraph, ProducesSameScienceAsAlways) {
  // Sanity on the refactored loop: both iterations ran, feedback reached
  // ML1, and downstream stages saw work.
  core::Campaign campaign(graph_target(), graph_config());
  const auto report = campaign.run();
  ASSERT_EQ(report.iterations.size(), 2u);
  EXPECT_EQ(report.iterations[0].docked, 12u);
  EXPECT_EQ(report.iterations[1].library_screened, 40u);
  EXPECT_GT(report.iterations[1].docked, 0u);
  for (const auto& it : report.iterations) {
    EXPECT_GT(it.cg_runs, 0u);
    EXPECT_GT(it.fg_runs, 0u);
  }
  EXPECT_GT(report.flops.at("ML1"), 0u);
  EXPECT_GT(report.flops.at("S3-FG"), 0u);
  EXPECT_FALSE(report.science_fingerprint().empty());
}

TEST(CampaignGraph, FingerprintMatchesRecordedDigest) {
  // FNV-1a-64 of graph_config()'s science fingerprint, recorded from the
  // default (RelWithDebInfo) build. The other fingerprint tests compare two
  // runs of one binary; this one pins the bytes across builds, so a build
  // flag (-O3, -march=native) or a refactor that changes science fails here.
  const std::string fp = run_fingerprint(graph_config());
  EXPECT_EQ(chem::fnv1a64(fp.data(), fp.size()), 0x25994c9be65b63d4ULL);
}

TEST(CampaignGraph, FingerprintInvariantToThreadCount) {
  core::CampaignConfig one = graph_config();
  one.threads = 1;
  core::CampaignConfig many = graph_config();
  many.threads = 4;
  EXPECT_EQ(run_fingerprint(one), run_fingerprint(many));
}

TEST(CampaignGraph, PipelinedModeIsBitwiseIdenticalToSequential) {
  core::CampaignConfig seq = graph_config();
  seq.iterations = 3;
  core::CampaignConfig pip = seq;
  pip.pipeline_iterations = true;
  pip.threads = 4;  // maximize overlap; science must not notice
  EXPECT_EQ(run_fingerprint(seq), run_fingerprint(pip));
}

TEST(CampaignGraph, SimBackendMatchesLocalBackend) {
  // The same stage modules drive both backends; virtual time vs wall time
  // must not leak into the science.
  const core::CampaignConfig cfg = graph_config();
  core::Campaign local_campaign(graph_target(), cfg);
  const std::string local_fp = local_campaign.run().science_fingerprint();

  rct::SimBackend sim(hpc::test_machine(4));
  core::Campaign sim_campaign(graph_target(), cfg);
  const std::string sim_fp = sim_campaign.run(sim).science_fingerprint();
  EXPECT_EQ(local_fp, sim_fp);
}

TEST(CampaignGraph, PipeliningReducesVirtualMakespan) {
  core::CampaignConfig cfg = graph_config();
  cfg.iterations = 3;

  auto makespan = [&](bool pipelined) {
    core::CampaignConfig c = cfg;
    c.pipeline_iterations = pipelined;
    rct::SimBackend sim(hpc::test_machine(8));
    core::Campaign campaign(graph_target(), c);
    const auto report = campaign.run(sim);
    return report.profile.makespan();
  };

  const double sequential = makespan(false);
  const double pipelined = makespan(true);
  EXPECT_GT(sequential, 0.0);
  // Iteration i+1's ML1+S1 overlap iteration i's CG/S2/FG tail.
  EXPECT_LT(pipelined, sequential);
}

TEST(CampaignGraph, CheckpointEveryIterationSurvivesKillAndResume) {
  const std::string ckpt1 = "campaign_graph_ckpt1.csv";
  const std::string ckpt2 = "campaign_graph_ckpt2.csv";

  // Leg 1: a campaign killed after its first iteration — modeled by running
  // one iteration with periodic checkpointing on.
  core::CampaignConfig leg1 = graph_config();
  leg1.iterations = 1;
  leg1.checkpoint_path = ckpt1;
  core::Campaign first(graph_target(), leg1);
  const auto report1 = first.run();
  const auto saved = core::read_checkpoint(ckpt1);
  std::size_t saved_docked = 0;
  for (const auto& [id, rec] : saved) saved_docked += rec.docked ? 1 : 0;
  EXPECT_EQ(saved_docked, report1.iterations[0].docked);
  ASSERT_EQ(saved_docked, 12u);

  // Leg 2: resume mid-campaign. Same seed => the bootstrap permutation is
  // identical, so the first 12 picks are exactly the already-docked set and
  // only the 12 fresh ones dock again.
  core::CampaignConfig leg2 = graph_config();
  leg2.iterations = 1;
  leg2.bootstrap_docks = 24;
  leg2.resume_checkpoint = ckpt1;
  leg2.checkpoint_path = ckpt2;
  core::Campaign second(graph_target(), leg2);
  const auto report2 = second.run();

  EXPECT_EQ(report2.iterations[0].docked, 12u);  // no redone work
  std::size_t total_docked = 0;
  for (const auto& [id, rec] : report2.compounds)
    total_docked += rec.docked ? 1 : 0;
  EXPECT_EQ(total_docked, 24u);  // restored + fresh
  // Every leg-1 compound survived the roundtrip with its score intact.
  for (const auto& [id, rec] : saved) {
    if (!rec.docked) continue;
    const auto& after = report2.compounds.at(id);
    EXPECT_TRUE(after.docked);
    EXPECT_DOUBLE_EQ(after.dock_score, rec.dock_score);
  }
  // The leg-2 checkpoint accumulated both legs.
  const auto saved2 = core::read_checkpoint(ckpt2);
  std::size_t saved2_docked = 0;
  for (const auto& [id, rec] : saved2) saved2_docked += rec.docked ? 1 : 0;
  EXPECT_EQ(saved2_docked, 24u);

  std::remove(ckpt1.c_str());
  std::remove(ckpt2.c_str());
}

TEST(CampaignGraph, RetryConfigFlowsThroughToTheEngine) {
  // max_retries/stage_transition_overhead now come from the config; a
  // campaign on a walltime-limited pilot retries the killed tasks and
  // still completes all science.
  core::CampaignConfig cfg = graph_config();
  cfg.iterations = 1;
  cfg.max_retries = 4;
  cfg.stage_transition_overhead = 0.1;
  // Every task fits inside one pilot window, so a task killed mid-window
  // always succeeds when retried at the boundary.
  cfg.sim_durations = {.ml1 = 5.0, .dock = 1.0, .cg = 8.0, .s2 = 5.0, .fg = 8.0};

  rct::SimBackendOptions sopts;
  sopts.pilot_walltime = 10.0;  // several pilots per campaign
  rct::SimBackend sim(hpc::test_machine(4), sopts);
  core::Campaign campaign(graph_target(), cfg);
  const auto report = campaign.run(sim);
  EXPECT_GT(sim.pilot_generation(), 1);
  EXPECT_EQ(report.iterations[0].docked, 12u);
  EXPECT_GT(report.iterations[0].fg_runs, 0u);
}

TEST(CampaignGraph, RetriedPayloadsLeaveScienceUnchanged) {
  // RetryConfigFlowsThroughToTheEngine's settings over both iterations, so
  // a trained ML1 is among the killed tasks. A task killed at a pilot
  // boundary has already run its payload, and its retry runs it again; the
  // re-run must not add FG jobs or retrain an already-trained surrogate.
  core::CampaignConfig cfg = graph_config();
  cfg.max_retries = 4;
  cfg.stage_transition_overhead = 0.1;
  cfg.sim_durations = {.ml1 = 5.0, .dock = 1.0, .cg = 8.0, .s2 = 5.0, .fg = 8.0};

  rct::SimBackend unlimited(hpc::test_machine(4));
  const core::CampaignReport want =
      core::Campaign(graph_target(), cfg).run(unlimited);

  rct::SimBackendOptions sopts;
  sopts.pilot_walltime = 10.0;
  rct::SimBackend limited(hpc::test_machine(4), sopts);
  const core::CampaignReport got =
      core::Campaign(graph_target(), cfg).run(limited);
  ASSERT_GT(limited.pilot_generation(), 1);

  ASSERT_EQ(got.iterations.size(), want.iterations.size());
  for (std::size_t i = 0; i < got.iterations.size(); ++i)
    EXPECT_EQ(got.iterations[i].fg_runs, want.iterations[i].fg_runs)
        << "iteration " << i;
  EXPECT_EQ(got.flops.at("S3-FG"), want.flops.at("S3-FG"));
  EXPECT_EQ(got.science_fingerprint(), want.science_fingerprint());
}

// Multi-target campaign engine tests: per-target science fingerprints are
// invariant to co-scheduling (number of targets sharing the backend, ready
// order, target policy, backend kind); the ScienceConfig/ExecConfig split
// composes the same campaign; the RaptorBackend adapter bulks routed tasks,
// fans results back out per member, and keeps AppManager retry semantics;
// RaptorStats derived metrics stay finite on empty workloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "impeccable/core/campaign.hpp"
#include "impeccable/core/multi_campaign.hpp"
#include "impeccable/fe/esmacs.hpp"
#include "impeccable/hpc/machine.hpp"
#include "impeccable/rct/backend.hpp"
#include "impeccable/rct/entk.hpp"
#include "impeccable/rct/raptor_backend.hpp"

namespace core = impeccable::core;
namespace fe = impeccable::fe;
namespace hpc = impeccable::hpc;
namespace rct = impeccable::rct;
namespace stages = impeccable::core::stages;

namespace {

core::ScienceConfig small_science(std::uint64_t library_seed) {
  core::ScienceConfig sci;
  sci.library_size = 30;
  sci.library_seed = library_seed;
  sci.iterations = 2;
  sci.bootstrap_docks = 10;
  sci.dock_top_fraction = 0.3;
  sci.cg_compounds = 2;
  sci.top_binders = 2;
  sci.outliers_per_binder = 1;
  sci.dock.runs = 1;
  sci.dock.lga.population = 10;
  sci.dock.lga.generations = 4;
  sci.esmacs_cg = fe::cg_config(0.25);
  sci.esmacs_cg.replicas = 2;
  sci.esmacs_fg = fe::fg_config(0.1);
  sci.esmacs_fg.replicas = 2;
  sci.surrogate.epochs = 2;
  sci.aae.epochs = 2;
  return sci;
}

core::ExecConfig small_exec() {
  core::ExecConfig exec;
  exec.seed = 17;
  exec.threads = 2;
  return exec;
}

core::Target target_a() { return core::Target::make("3CLPro-like", 99, 30, 17); }
core::Target target_b() { return core::Target::make("PLPro-like", 1234, 34, 19); }
core::Target target_c() { return core::Target::make("ADRP-like", 555, 28, 17); }

std::string standalone_fingerprint(core::Target target,
                                   const core::ScienceConfig& sci) {
  rct::SimBackend sim(hpc::test_machine(4));
  core::Campaign campaign(std::move(target), sci, small_exec());
  return campaign.run(sim).science_fingerprint();
}

rct::TaskDescription dock_task(const std::string& name, double duration) {
  rct::TaskDescription t;
  t.name = name;
  t.gpus = 1;
  t.duration = duration;
  return t;
}

}  // namespace

TEST(MultiCampaign, CoSchedulingPreservesEachTargetsScience) {
  // Each target's fingerprint on a shared priority-scheduled backend must be
  // bitwise identical to its own single-target run.
  const auto sci_a = small_science(2020);
  const auto sci_b = small_science(4040);
  const std::string solo_a = standalone_fingerprint(target_a(), sci_a);
  const std::string solo_b = standalone_fingerprint(target_b(), sci_b);

  core::HitRatePolicy policy(500.0);
  core::MultiCampaignOptions opts;  // kPriority + critical path by default
  opts.policy = &policy;
  core::MultiCampaign multi(small_exec(), opts);
  multi.add_target(target_a(), sci_a);
  multi.add_target(target_b(), sci_b);
  ASSERT_EQ(multi.target_count(), 2u);

  rct::SimBackend sim(hpc::test_machine(4));
  const auto out = multi.run(sim);
  ASSERT_EQ(out.reports.size(), 2u);
  EXPECT_EQ(out.targets[0], "3CLPro-like");
  EXPECT_EQ(out.targets[1], "PLPro-like");
  EXPECT_EQ(out.reports[0].science_fingerprint(), solo_a);
  EXPECT_EQ(out.reports[1].science_fingerprint(), solo_b);
  // The shared graph ran every node of both campaigns: 5 stages x 2
  // iterations x 2 targets.
  EXPECT_EQ(out.graph.nodes.size(), 20u);
  EXPECT_EQ(out.graph.failed(), 0u);
}

TEST(MultiCampaign, FingerprintInvariantToPolicyOrderAndCohort) {
  // Same target A, three very different schedules: FIFO two-target cohort,
  // priority three-target cohort with a policy, and its own solo run. All
  // three fingerprints identical — scheduling is science-neutral.
  const auto sci = small_science(2020);
  const std::string solo = standalone_fingerprint(target_a(), sci);

  core::MultiCampaignOptions fifo;
  fifo.ready_order = rct::AppManagerOptions::ReadyOrder::kFifo;
  fifo.critical_path_priority = false;
  core::MultiCampaign two(small_exec(), fifo);
  two.add_target(target_a(), sci);
  two.add_target(target_b(), small_science(4040));
  rct::SimBackend sim2(hpc::test_machine(4));
  EXPECT_EQ(two.run(sim2).reports[0].science_fingerprint(), solo);

  core::HitRatePolicy policy(900.0);
  core::MultiCampaignOptions prio;
  prio.policy = &policy;
  core::MultiCampaign three(small_exec(), prio);
  three.add_target(target_c(), small_science(8080));
  three.add_target(target_a(), sci);
  three.add_target(target_b(), small_science(4040));
  rct::SimBackend sim3(hpc::test_machine(4));
  EXPECT_EQ(three.run(sim3).reports[1].science_fingerprint(), solo);
}

TEST(MultiCampaign, LocalBackendMatchesSimBackend) {
  // The shared run is deterministic on real threads too (this is the test
  // the tsan-multi lane leans on).
  const auto sci_a = small_science(2020);
  const auto sci_b = small_science(4040);

  core::MultiCampaign on_sim(small_exec());
  on_sim.add_target(target_a(), sci_a);
  on_sim.add_target(target_b(), sci_b);
  rct::SimBackend sim(hpc::test_machine(4));
  const auto sim_out = on_sim.run(sim);

  core::MultiCampaign on_local(small_exec());
  on_local.add_target(target_a(), sci_a);
  on_local.add_target(target_b(), sci_b);
  const auto local_out = on_local.run();  // LocalBackend, exec.threads = 2

  ASSERT_EQ(sim_out.reports.size(), local_out.reports.size());
  for (std::size_t i = 0; i < sim_out.reports.size(); ++i)
    EXPECT_EQ(sim_out.reports[i].science_fingerprint(),
              local_out.reports[i].science_fingerprint());
}

TEST(MultiCampaign, ConfigSplitComposesTheSameCampaign) {
  // A flat CampaignConfig and its (science, exec) slices recomposed through
  // the new constructor drive identical campaigns.
  core::CampaignConfig flat;
  static_cast<core::ScienceConfig&>(flat) = small_science(2020);
  static_cast<core::ExecConfig&>(flat) = small_exec();

  rct::SimBackend sim1(hpc::test_machine(4));
  core::Campaign by_flat(target_a(), flat);
  const std::string flat_fp = by_flat.run(sim1).science_fingerprint();

  rct::SimBackend sim2(hpc::test_machine(4));
  core::Campaign by_slices(target_a(), flat.science(), flat.exec());
  EXPECT_EQ(by_slices.run(sim2).science_fingerprint(), flat_fp);

  // The aggregate exposes both views over the same storage.
  core::CampaignConfig recomposed(small_science(7), small_exec());
  EXPECT_EQ(recomposed.library_seed, 7u);
  EXPECT_EQ(recomposed.science().library_seed, 7u);
  EXPECT_EQ(recomposed.exec().seed, 17u);
}

TEST(MultiCampaign, VirtualTargetsRunThroughOneGraph) {
  // Heterogeneous ScaleModel targets co-scheduled on the DES machine; the
  // priority schedule must not be slower than FIFO on the same workload.
  auto make = [](double cg_seconds, std::size_t docks) {
    stages::ScaleModel m;
    m.ml1_ligands = 4000;
    m.ml1_shards = 2;
    m.ml1_gpu_seconds_per_ligand = 1e-3;
    m.s1_docks = docks;
    m.s1_chunk = 500;
    m.s1_gpu_seconds_per_ligand = 0.02;
    m.cg_ligands = 6;
    m.cg_whole_nodes = 1;
    m.cg_seconds = cg_seconds;
    m.s2_tasks = 2;
    m.s2_whole_nodes = 1;
    m.s2_seconds = 60.0;
    m.fg_conformations = 4;
    m.fg_whole_nodes = 2;
    m.fg_seconds = 120.0;
    return m;
  };

  auto run_mode = [&](rct::AppManagerOptions::ReadyOrder order, bool cp) {
    core::ExecConfig exec = small_exec();
    exec.pipeline_iterations = true;
    core::MultiCampaignOptions opts;
    opts.ready_order = order;
    opts.critical_path_priority = cp;
    core::MultiCampaign multi(exec, opts);
    multi.add_virtual_target("heavy-cg", 2, make(900.0, 2000));
    multi.add_virtual_target("dock-bound", 2, make(300.0, 8000));
    rct::SimBackend sim(hpc::test_machine(2));
    return multi.run(sim);
  };

  const auto fifo = run_mode(rct::AppManagerOptions::ReadyOrder::kFifo, false);
  const auto prio = run_mode(rct::AppManagerOptions::ReadyOrder::kPriority, true);
  EXPECT_EQ(fifo.graph.failed(), 0u);
  EXPECT_EQ(prio.graph.failed(), 0u);
  EXPECT_EQ(fifo.graph.completed(), prio.graph.completed());
  EXPECT_GT(fifo.graph.makespan, 0.0);
  EXPECT_GT(prio.graph.makespan, 0.0);
  // Priority nodes carry their ScaleModel-derived tails in the report.
  double max_priority = 0.0;
  for (const auto& n : prio.graph.nodes)
    max_priority = std::max(max_priority, n.priority);
  EXPECT_GT(max_priority, 0.0);
  for (const auto& n : fifo.graph.nodes) EXPECT_EQ(n.priority, 0.0);
}

TEST(RaptorBackend, BulksRoutedTasksAndFansOutResults) {
  rct::SimBackend sim(hpc::test_machine(2));
  rct::RaptorBackendOptions ropts;
  ropts.overlay.masters = 1;
  ropts.overlay.workers = 3;
  ropts.overlay.bulk_size = 4;
  rct::RaptorBackend raptor(sim, ropts);

  std::vector<rct::TaskResult> results;
  for (int i = 0; i < 10; ++i)
    raptor.submit(dock_task("dock-" + std::to_string(i), 0.5),
                  [&results](const rct::TaskResult& r) { results.push_back(r); });
  // Unrouted names pass straight through.
  bool ml_done = false;
  raptor.submit(dock_task("ml1-train", 1.0),
                [&ml_done](const rct::TaskResult& r) { ml_done = r.ok; });
  raptor.drain();

  ASSERT_EQ(results.size(), 10u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
    EXPECT_GT(r.end_time, 0.0);
  }
  EXPECT_TRUE(ml_done);

  const rct::RaptorStats stats = raptor.stats();
  EXPECT_EQ(stats.tasks, 10u);  // the ml1 task never touched the overlay
  EXPECT_GT(stats.makespan, 0.0);
  EXPECT_GT(stats.worker_utilization, 0.0);
  EXPECT_LE(stats.worker_utilization, 1.0 + 1e-9);
  ASSERT_EQ(stats.worker_busy.size(), 3u);
}

TEST(RaptorBackend, MemberFailureFailsOnlyThatMember) {
  rct::SimBackend sim(hpc::test_machine(1));
  rct::RaptorBackendOptions ropts;
  ropts.overlay.bulk_size = 8;  // all three members share one bulk
  rct::RaptorBackend raptor(sim, ropts);

  std::vector<rct::TaskResult> results;
  auto record = [&results](const rct::TaskResult& r) { results.push_back(r); };
  auto failing = dock_task("dock-bad", 0.2);
  failing.payload = [] { throw std::runtime_error("pose rejected"); };
  raptor.submit(dock_task("dock-a", 0.2), record);
  raptor.submit(std::move(failing), record);
  raptor.submit(dock_task("dock-b", 0.2), record);
  raptor.drain();

  ASSERT_EQ(results.size(), 3u);
  std::size_t failed = 0;
  for (const auto& r : results) {
    if (r.name == "dock-bad") {
      EXPECT_FALSE(r.ok);
      EXPECT_NE(r.error.find("pose rejected"), std::string::npos);
      ++failed;
    } else {
      EXPECT_TRUE(r.ok) << r.error;
    }
  }
  EXPECT_EQ(failed, 1u);
}

TEST(RaptorBackend, RetriedMembersReenterBulking) {
  // A member that fails once is resubmitted by AppManager and must succeed
  // through the overlay on the second attempt.
  rct::SimBackend sim(hpc::test_machine(1));
  rct::RaptorBackendOptions ropts;
  ropts.overlay.bulk_size = 4;
  rct::RaptorBackend raptor(sim, ropts);
  rct::AppManager mgr(raptor, {.max_retries = 1});

  auto flaky_calls = std::make_shared<std::atomic<int>>(0);
  rct::StageGraph g;
  rct::StageNode n;
  n.name = "s1";
  n.pipeline = "iteration-0";
  for (int i = 0; i < 3; ++i) n.tasks.push_back(dock_task("dock-" + std::to_string(i), 0.3));
  rct::TaskDescription flaky = dock_task("dock-flaky", 0.3);
  flaky.payload = [flaky_calls] {
    if (flaky_calls->fetch_add(1) == 0) throw std::runtime_error("transient");
  };
  n.tasks.push_back(std::move(flaky));
  g.add(std::move(n));

  const auto report = mgr.run_graph(std::move(g));
  EXPECT_EQ(report.retries, 1u);
  EXPECT_EQ(report.failed(), 0u);
  EXPECT_EQ(report.completed(), 4u);
  EXPECT_EQ(flaky_calls->load(), 2);
  EXPECT_EQ(raptor.stats().tasks, 4u);  // retry attempt re-bulked; failed
                                        // first attempt is not counted done
}

TEST(RaptorBackend, WorkerFailuresRequeueBulks) {
  rct::SimBackend sim(hpc::test_machine(2));
  rct::RaptorBackendOptions ropts;
  ropts.overlay.workers = 4;
  ropts.overlay.bulk_size = 2;
  ropts.overlay.worker_failure_rate = 0.5;
  ropts.overlay.failure_seed = 7;
  rct::RaptorBackend raptor(sim, ropts);

  std::size_t done = 0;
  for (int i = 0; i < 16; ++i)
    raptor.submit(dock_task("dock-" + std::to_string(i), 0.4),
                  [&done](const rct::TaskResult& r) { done += r.ok ? 1 : 0; });
  raptor.drain();

  EXPECT_EQ(done, 16u);  // requeues lose time, never tasks
  const auto stats = raptor.stats();
  EXPECT_EQ(stats.tasks, 16u);
  EXPECT_GT(stats.bulks_requeued, 0u);
  EXPECT_GT(stats.workers_failed, 0);
}

TEST(RaptorStats, EmptyWorkloadYieldsCleanZeros) {
  // Regression: derived metrics divided by makespan / worker mean and went
  // NaN on empty workloads.
  const rct::RaptorStats stats = rct::run_raptor({}, {});
  EXPECT_EQ(stats.tasks, 0u);
  EXPECT_EQ(stats.makespan, 0.0);
  EXPECT_EQ(stats.throughput_per_hour, 0.0);
  EXPECT_EQ(stats.worker_utilization, 0.0);
  EXPECT_EQ(stats.load_imbalance, 0.0);
  EXPECT_FALSE(std::isnan(stats.throughput_per_hour));

  rct::RaptorStats zero;
  zero.worker_busy = {0.0, 0.0};
  zero.finalize_derived();  // all-idle overlay: mean busy is zero
  EXPECT_EQ(zero.worker_utilization, 0.0);
  EXPECT_EQ(zero.load_imbalance, 0.0);

  rct::RaptorStats no_workers;
  no_workers.tasks = 5;
  no_workers.makespan = 2.0;
  no_workers.finalize_derived();  // empty worker set
  EXPECT_GT(no_workers.throughput_per_hour, 0.0);
  EXPECT_EQ(no_workers.worker_utilization, 0.0);
}

TEST(GraphRunReport, RecordsNodeTimingsAndRunTotals) {
  rct::SimBackend sim(hpc::test_machine(2));
  rct::AppManager mgr(sim, {.stage_transition_overhead = 0.5});

  rct::StageGraph g;
  auto node = [](const std::string& name, double dur) {
    rct::StageNode n;
    n.name = name;
    n.pipeline = "p";
    n.tasks.push_back(dock_task(name + "-t", dur));
    return n;
  };
  const auto a = g.add(node("a", 1.0));
  g.set_priority(a, 3.0);
  g.add(node("b", 2.0), {a});
  EXPECT_THROW(g.set_priority(99, 1.0), std::out_of_range);

  const auto report = mgr.run_graph(std::move(g));
  ASSERT_EQ(report.nodes.size(), 2u);
  EXPECT_EQ(report.nodes[0].name, "a");
  EXPECT_EQ(report.nodes[0].priority, 3.0);
  EXPECT_EQ(report.nodes[0].tasks, 1u);
  EXPECT_GE(report.nodes[0].ready_wait(), 0.0);
  // b became ready when a's post_exec ran, then waited out the transition
  // overhead before launching.
  EXPECT_NEAR(report.nodes[1].ready, report.nodes[0].end, 1e-9);
  EXPECT_NEAR(report.nodes[1].ready_wait(), 0.5, 1e-9);
  // 1s + 2s of work, the 0.5s transition, and the SimBackend's 0.05s
  // per-task launch overhead twice.
  EXPECT_NEAR(report.makespan, 3.6, 1e-9);
  EXPECT_NEAR(report.makespan, report.results.back().end_time, 1e-12);
  EXPECT_EQ(report.completed(), 2u);
  EXPECT_EQ(report.failed(), 0u);

  // Histogram covers every node once.
  std::size_t binned = 0;
  for (const auto& [edge, count] : report.ready_wait_histogram()) binned += count;
  EXPECT_EQ(binned, report.nodes.size());

  // Results arrive in completion order.
  EXPECT_EQ(report.retries, 0u);
  ASSERT_FALSE(report.results.empty());
  EXPECT_EQ(report.results.front().name, "a-t");
  EXPECT_EQ(report.results.back().name, "b-t");
  for (const auto& r : report.results) EXPECT_TRUE(r.ok);
}

// HPC substrate + RCT infrastructure tests: DES determinism, cluster
// placement/queueing/utilization, machine specs, both execution backends,
// pilot walltime, the profile CSV, and EnTK pipelines with adaptivity and
// retries.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "impeccable/hpc/cluster.hpp"
#include "impeccable/hpc/des.hpp"
#include "impeccable/hpc/machine.hpp"
#include "impeccable/obs/recorder.hpp"
#include "impeccable/rct/backend.hpp"
#include "impeccable/rct/entk.hpp"
#include "impeccable/rct/profiler.hpp"

namespace hpc = impeccable::hpc;
namespace rct = impeccable::rct;
namespace obs = impeccable::obs;

// ---------------------------------------------------------------- Simulator

TEST(Des, EventsRunInTimeOrder) {
  hpc::Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(3.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Des, TiesBreakByInsertionOrder) {
  hpc::Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Des, CallbacksCanScheduleMore) {
  hpc::Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 10) sim.schedule_in(1.0, tick);
  };
  sim.schedule_in(1.0, tick);
  sim.run();
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Des, RejectsPastEvents) {
  hpc::Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), std::invalid_argument);
}

TEST(Des, RunUntilStopsAtBoundary) {
  hpc::Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

// ---------------------------------------------------------------- Cluster

TEST(Cluster, PlacesWithinCapacityAndQueuesBeyond) {
  hpc::Simulator sim;
  hpc::ClusterSim cluster(sim, hpc::test_machine(1));  // 6 GPUs
  int started = 0;
  std::vector<hpc::Placement> placements;
  for (int i = 0; i < 8; ++i) {
    cluster.submit({1, 1, 0}, [&](const hpc::Placement& p) {
      ++started;
      placements.push_back(p);
    });
  }
  sim.run();
  EXPECT_EQ(started, 6);  // only 6 GPUs
  EXPECT_EQ(cluster.queued(), 2u);
  // Releasing lets the queue drain.
  cluster.release({1, 1, 0}, placements[0]);
  cluster.release({1, 1, 0}, placements[1]);
  sim.run();
  EXPECT_EQ(started, 8);
  EXPECT_EQ(cluster.queued(), 0u);
}

TEST(Cluster, WholeNodeAllocation) {
  hpc::Simulator sim;
  hpc::ClusterSim cluster(sim, hpc::test_machine(4));
  hpc::Placement got;
  cluster.submit({0, 0, 3}, [&](const hpc::Placement& p) { got = p; });
  sim.run();
  EXPECT_EQ(got.node_count, 3);
  EXPECT_EQ(got.gpus, 18);
  EXPECT_EQ(cluster.busy_gpus(), 18);
  cluster.release({0, 0, 3}, got);
  EXPECT_EQ(cluster.busy_gpus(), 0);
}

TEST(Cluster, RejectsOversizedRequests) {
  hpc::Simulator sim;
  hpc::ClusterSim cluster(sim, hpc::test_machine(2));
  EXPECT_THROW(cluster.submit({1, 7, 0}, [](const hpc::Placement&) {}),
               std::invalid_argument);
  EXPECT_THROW(cluster.submit({0, 0, 3}, [](const hpc::Placement&) {}),
               std::invalid_argument);
}

TEST(Cluster, RejectsRequestsForNothing) {
  // A request claiming no CPU, no GPU and no whole node would fit even on a
  // full machine; drain_queue's early exit relies on there being none.
  hpc::Simulator sim;
  hpc::ClusterSim cluster(sim, hpc::test_machine(1));
  EXPECT_THROW(cluster.submit({0, 0, 0}, [](const hpc::Placement&) {}),
               std::invalid_argument);
  EXPECT_EQ(cluster.queued(), 0u);

  // GPUs full but CPUs free: the queue scan must go on past a blocked GPU
  // request and backfill the CPU-only one behind it.
  int started = 0;
  for (int i = 0; i < 7; ++i)
    cluster.submit({0, 1, 0}, [&](const hpc::Placement&) { ++started; });
  cluster.submit({1, 0, 0}, [&](const hpc::Placement&) { ++started; });
  sim.run();
  EXPECT_EQ(started, 7);
  EXPECT_EQ(cluster.queued(), 1u);
  EXPECT_EQ(cluster.busy_cpus(), 1);
}

TEST(Cluster, UtilizationTimeSeriesTracksLoad) {
  hpc::Simulator sim;
  hpc::ClusterSim cluster(sim, hpc::test_machine(1));
  // Occupy all 6 GPUs from t=0 to t=10.
  std::vector<hpc::Placement> ps(6);
  for (int i = 0; i < 6; ++i) {
    cluster.submit({1, 1, 0}, [&, i](const hpc::Placement& p) {
      ps[static_cast<std::size_t>(i)] = p;
      sim.schedule_at(10.0, [&, i] { cluster.release({1, 1, 0}, ps[static_cast<std::size_t>(i)]); });
    });
  }
  sim.run();
  EXPECT_NEAR(cluster.mean_gpu_utilization(0.0, 10.0), 1.0, 1e-9);
  EXPECT_NEAR(cluster.mean_gpu_utilization(10.0, 20.0), 0.0, 1e-9);
  EXPECT_NEAR(cluster.mean_gpu_utilization(0.0, 20.0), 0.5, 1e-9);
}

// ---------------------------------------------------------------- SimBackend

TEST(SimBackend, ExecutesTasksInVirtualTime) {
  rct::SimBackend backend(hpc::test_machine(1));
  std::vector<rct::TaskResult> results;
  for (int i = 0; i < 3; ++i) {
    rct::TaskDescription t;
    t.name = "t" + std::to_string(i);
    t.gpus = 1;
    t.duration = 10.0;
    backend.submit(t, [&](const rct::TaskResult& r) { results.push_back(r); });
  }
  backend.drain();
  ASSERT_EQ(results.size(), 3u);
  // All three fit concurrently on 6 GPUs: end ~ overhead + 10.
  for (const auto& r : results) {
    EXPECT_TRUE(r.ok);
    EXPECT_NEAR(r.end_time, 10.05, 1e-9);
  }
}

TEST(SimBackend, SerializesWhenResourcesAreScarce) {
  hpc::MachineSpec one = hpc::test_machine(1);
  one.gpus_per_node = 1;
  rct::SimBackend backend(one);
  std::vector<double> ends;
  for (int i = 0; i < 3; ++i) {
    rct::TaskDescription t;
    t.gpus = 1;
    t.duration = 5.0;
    backend.submit(t, [&](const rct::TaskResult& r) { ends.push_back(r.end_time); });
  }
  backend.drain();
  ASSERT_EQ(ends.size(), 3u);
  std::sort(ends.begin(), ends.end());
  EXPECT_GT(ends[1], ends[0] + 4.9);
  EXPECT_GT(ends[2], ends[1] + 4.9);
}

TEST(SimBackend, RunsPayloadAndReportsFailure) {
  rct::SimBackend backend(hpc::test_machine(1));
  bool ran = false;
  rct::TaskDescription ok;
  ok.payload = [&] { ran = true; };
  rct::TaskDescription bad;
  bad.payload = [] { throw std::runtime_error("sim boom"); };
  rct::TaskResult rok, rbad;
  backend.submit(ok, [&](const rct::TaskResult& r) { rok = r; });
  backend.submit(bad, [&](const rct::TaskResult& r) { rbad = r; });
  backend.drain();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(rok.ok);
  EXPECT_FALSE(rbad.ok);
  EXPECT_EQ(rbad.error, "sim boom");
}

// ---------------------------------------------------------------- LocalBackend

TEST(LocalBackend, ExecutesPayloadsConcurrently) {
  rct::LocalBackend backend(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) {
    rct::TaskDescription t;
    t.payload = [&] { count.fetch_add(1); };
    backend.submit(t, [](const rct::TaskResult&) {});
  }
  backend.drain();
  EXPECT_EQ(count.load(), 20);
}

TEST(LocalBackend, ReportsExceptionsAsFailures) {
  rct::LocalBackend backend(2);
  rct::TaskResult seen;
  rct::TaskDescription t;
  t.name = "boom";
  t.payload = [] { throw std::runtime_error("local boom"); };
  backend.submit(t, [&](const rct::TaskResult& r) { seen = r; });
  backend.drain();
  EXPECT_FALSE(seen.ok);
  EXPECT_EQ(seen.error, "local boom");
  EXPECT_EQ(seen.name, "boom");
}

// ---------------------------------------------------------------- EnTK

namespace {

rct::TaskDescription sim_task(const std::string& name, double duration,
                              int gpus = 1) {
  rct::TaskDescription t;
  t.name = name;
  t.gpus = gpus;
  t.duration = duration;
  return t;
}

}  // namespace

TEST(Entk, StagesRunSequentiallyTasksConcurrently) {
  rct::SimBackend backend(hpc::test_machine(2));
  rct::AppManager mgr(backend, {.stage_transition_overhead = 1.0});

  rct::Pipeline p("p");
  rct::Stage s1{"s1", {sim_task("a", 10), sim_task("b", 10)}, nullptr};
  rct::Stage s2{"s2", {sim_task("c", 5)}, nullptr};
  p.add_stage(s1);
  p.add_stage(s2);

  const auto results = mgr.run({std::move(p)}).results;
  ASSERT_EQ(results.size(), 3u);
  double end_a = 0, start_c = 1e18;
  for (const auto& r : results) {
    if (r.name == "a" || r.name == "b") end_a = std::max(end_a, r.end_time);
    if (r.name == "c") start_c = r.start_time;
  }
  // Stage 2 starts only after stage 1 + transition overhead.
  EXPECT_GE(start_c, end_a + 1.0 - 1e-9);
}

TEST(Entk, PipelinesProgressIndependently) {
  rct::SimBackend backend(hpc::test_machine(4));
  rct::AppManager mgr(backend, {.stage_transition_overhead = 0.0});

  rct::Pipeline fast("fast");
  fast.add_stage({"f1", {sim_task("f", 1)}, nullptr});
  fast.add_stage({"f2", {sim_task("g", 1)}, nullptr});
  rct::Pipeline slow("slow");
  slow.add_stage({"s1", {sim_task("s", 50)}, nullptr});

  const auto results = mgr.run({std::move(fast), std::move(slow)}).results;
  double g_end = 0, s_end = 0;
  for (const auto& r : results) {
    if (r.name == "g") g_end = r.end_time;
    if (r.name == "s") s_end = r.end_time;
  }
  // The fast pipeline's second stage finishes long before the slow one —
  // "each pipeline can progress at its own pace".
  EXPECT_LT(g_end, s_end);
}

TEST(Entk, PostExecAdaptivityAppendsStages) {
  rct::SimBackend backend(hpc::test_machine(1));
  rct::AppManager mgr(backend, {.stage_transition_overhead = 0.0});

  int rounds = 0;
  std::function<void(rct::Pipeline&)> extend = [&](rct::Pipeline& pipe) {
    if (++rounds < 3) {
      rct::Stage next{"adaptive" + std::to_string(rounds),
                      {sim_task("r" + std::to_string(rounds), 1)},
                      extend};
      pipe.add_stage(std::move(next));
    }
  };

  rct::Pipeline p("adaptive");
  p.add_stage({"seed", {sim_task("r0", 1)}, extend});
  const auto results = mgr.run({std::move(p)}).results;
  EXPECT_EQ(rounds, 3);
  EXPECT_EQ(results.size(), 3u);  // r0, r1, r2
}

TEST(Entk, HeterogeneousTasksMixInOneStage) {
  rct::SimBackend backend(hpc::test_machine(4));
  rct::AppManager mgr(backend);
  rct::Pipeline p("hetero");
  rct::TaskDescription gpu = sim_task("gpu", 5, 1);
  rct::TaskDescription cpu;
  cpu.name = "cpu";
  cpu.cpus = 8;
  cpu.duration = 5;
  rct::TaskDescription mpi;
  mpi.name = "mpi";
  mpi.whole_nodes = 2;
  mpi.duration = 5;
  p.add_stage({"mix", {gpu, cpu, mpi}, nullptr});
  const auto report = mgr.run({std::move(p)});
  EXPECT_EQ(report.results.size(), 3u);
  for (const auto& r : report.results) EXPECT_TRUE(r.ok);
  EXPECT_EQ(report.failed(), 0u);
}

TEST(Entk, WorksOnLocalBackendWithRealPayloads) {
  rct::LocalBackend backend(3);
  rct::AppManager mgr(backend);
  std::atomic<int> stage1{0}, stage2{0};
  rct::Pipeline p("local");
  rct::Stage s1{"s1", {}, nullptr};
  for (int i = 0; i < 6; ++i) {
    rct::TaskDescription t;
    t.name = std::string("w") + std::to_string(i);
    t.payload = [&] { stage1.fetch_add(1); };
    s1.tasks.push_back(std::move(t));
  }
  rct::Stage s2{"s2", {}, nullptr};
  rct::TaskDescription t2;
  t2.name = "check";
  t2.payload = [&] { stage2.store(stage1.load()); };
  s2.tasks.push_back(std::move(t2));
  p.add_stage(std::move(s1));
  p.add_stage(std::move(s2));
  mgr.run({std::move(p)});
  // Stage barrier: the check task observed all six stage-1 tasks done.
  EXPECT_EQ(stage2.load(), 6);
}

// ---------------------------------------------------------------- DES edges

TEST(DesEdge, ProcessedCounterAndRunUntilResume) {
  hpc::Simulator sim;
  int hits = 0;
  for (int i = 1; i <= 5; ++i)
    sim.schedule_at(i, [&] { ++hits; });
  sim.run_until(2.5);
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(sim.processed(), 2u);
  sim.run();
  EXPECT_EQ(hits, 5);
  EXPECT_EQ(sim.processed(), 5u);
}

// ---------------------------------------------------------------- machines

TEST(MiscMachine, SpecsExposeTotals) {
  const auto s = hpc::summit(10);
  EXPECT_EQ(s.total_gpus(), 60);
  EXPECT_EQ(s.total_cores(), 420);
  const auto f = hpc::frontera(3);
  EXPECT_EQ(f.total_gpus(), 0);
  EXPECT_EQ(f.total_cores(), 168);
}

// ---------------------------------------------------------------- walltime

TEST(PilotWalltime, LongTaskDiesAtBoundaryAndRetrySucceedsAfterSplit) {
  rct::SimBackendOptions sopts;
  sopts.pilot_walltime = 10.0;
  sopts.task_overhead = 0.0;
  rct::SimBackend backend(hpc::test_machine(1), sopts);

  rct::TaskDescription t;
  t.name = "long";
  t.gpus = 1;
  t.duration = 25.0;  // spans three allocations
  std::vector<rct::TaskResult> results;
  backend.submit(t, [&](const rct::TaskResult& r) { results.push_back(r); });
  backend.drain();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].error, "pilot walltime");
  EXPECT_NEAR(results[0].end_time, 10.0, 1e-9);
  EXPECT_GE(backend.pilot_generation(), 2);
}

TEST(PilotWalltime, ShortTasksSurviveAcrossGenerations) {
  rct::SimBackendOptions sopts;
  sopts.pilot_walltime = 20.0;
  sopts.task_overhead = 0.0;
  rct::SimBackend backend(hpc::test_machine(1), sopts);

  // 12 tasks x 5 s on 6 GPUs: two waves fit in the first pilot; later
  // submissions land in the second.
  int ok = 0, killed = 0;
  for (int i = 0; i < 30; ++i) {
    rct::TaskDescription t;
    t.gpus = 1;
    t.duration = 5.0;
    backend.submit(t, [&](const rct::TaskResult& r) {
      if (r.ok) ++ok;
      else ++killed;
    });
  }
  backend.drain();
  EXPECT_EQ(ok + killed, 30);
  EXPECT_GT(ok, 20);  // most tasks fit within boundaries
}

TEST(PilotWalltime, AppManagerRetriesAcrossPilots) {
  // A task whose duration fits a pilot but that starts mid-allocation gets
  // killed once and then succeeds in the next pilot via EnTK retry.
  rct::SimBackendOptions sopts;
  sopts.pilot_walltime = 10.0;
  sopts.task_overhead = 0.0;
  rct::SimBackend backend(hpc::test_machine(1), sopts);
  rct::AppManagerOptions mopts;
  mopts.max_retries = 3;
  mopts.stage_transition_overhead = 0.0;
  rct::AppManager mgr(backend, mopts);

  rct::Pipeline p("walltime");
  rct::TaskDescription blocker;  // occupies the pilot for 6 s first
  blocker.name = "blocker";
  blocker.gpus = 6;
  blocker.whole_nodes = 1;
  blocker.duration = 6.0;
  rct::TaskDescription work;  // 8 s: dies at t=10, succeeds on retry
  work.name = "work";
  work.gpus = 1;
  work.duration = 8.0;
  p.add_stage({"s1", {blocker}, nullptr});
  p.add_stage({"s2", {work}, nullptr});

  const auto report = mgr.run({std::move(p)});
  ASSERT_EQ(report.results.size(), 2u);
  for (const auto& r : report.results)
    EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
  EXPECT_EQ(report.retries, 1u);
}

// ---------------------------------------------------------------- profile CSV

TEST(ProfileCsv, WritesOneRowPerTask) {
  obs::Recorder rec;
  rct::SimBackend backend(hpc::test_machine(1));
  rec.set_clock([&backend] { return backend.now(); });
  backend.set_recorder(&rec);
  for (int i = 0; i < 3; ++i) {
    rct::TaskDescription t;
    t.name = std::string("t") + std::to_string(i);
    t.gpus = 1;
    t.duration = 2.0;
    backend.submit(t, [](const rct::TaskResult&) {});
  }
  backend.drain();

  const auto path = std::filesystem::temp_directory_path() / "imp_profile.csv";
  rct::SessionProfile::from_trace(rec.snapshot()).write_csv(path.string());
  std::ifstream f(path);
  std::string line;
  int rows = 0;
  std::getline(f, line);
  EXPECT_EQ(line,
            "name,submit,start,end,queue_wait,runtime,ok,cpus,gpus,"
            "whole_nodes,error");
  while (std::getline(f, line))
    if (!line.empty()) ++rows;
  EXPECT_EQ(rows, 3);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------- EnTK edges

TEST(MiscEntk, MakespanAndEmptyPipelines) {
  rct::SimBackend backend(hpc::test_machine(1));
  rct::AppManager mgr(backend);
  // Zero pipelines and an all-empty pipeline both complete trivially.
  EXPECT_TRUE(mgr.run({}).results.empty());
  rct::Pipeline p("empty");
  p.add_stage({"nothing", {}, nullptr});
  const auto report = mgr.run({std::move(p)});
  EXPECT_TRUE(report.results.empty());
  EXPECT_EQ(report.failed(), 0u);
}

TEST(MiscEntk, TaskStateNames) {
  EXPECT_STREQ(rct::to_string(rct::TaskState::New), "NEW");
  EXPECT_STREQ(rct::to_string(rct::TaskState::Done), "DONE");
  EXPECT_STREQ(rct::to_string(rct::TaskState::Failed), "FAILED");
}

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

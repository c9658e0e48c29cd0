// campaign: one full real-payload IMPECCABLE campaign (ML1 -> S1 -> S3-CG
// -> S2 -> S3-FG, two iterations) on LocalBackend through core::Campaign::run.

#include <fstream>

#include "impeccable/core/campaign.hpp"
#include "impeccable/obs/recorder.hpp"
#include "impeccable/rct/backend.hpp"
#include "util.hpp"

namespace core = impeccable::core;
namespace fe = impeccable::fe;
namespace obs = impeccable::obs;
namespace rct = impeccable::rct;

namespace perfbench {

namespace {

constexpr std::size_t kLibrary = 3000;

core::Target make_target(std::uint64_t seed) {
  return core::Target::make("perfbench-target", 6209 + seed,
                            /*protein_residues=*/50, /*grid_nodes=*/23);
}

core::ScienceConfig science(std::uint64_t seed) {
  core::ScienceConfig sci;
  sci.library_size = kLibrary;
  sci.library_seed = 2020 + seed;
  sci.iterations = 2;
  sci.bootstrap_docks = 64;
  sci.dock_top_fraction = 0.03;
  sci.cg_compounds = 6;
  sci.top_binders = 2;
  sci.outliers_per_binder = 2;
  sci.dock.runs = 2;
  sci.dock.lga.population = 24;
  sci.dock.lga.generations = 10;
  sci.esmacs_cg = fe::cg_config(0.4);
  sci.esmacs_cg.replicas = 4;
  sci.esmacs_fg = fe::fg_config(0.15);
  sci.esmacs_fg.replicas = 6;
  sci.surrogate.epochs = 5;
  sci.aae.epochs = 5;
  return sci;
}

/// Output checks shared by every pass: no failed task, and the science
/// fingerprint bitwise equal to the first pass of this run (`first`, which
/// the first pass sets and writes out for run.py's reference check).
void check_report(const core::CampaignReport& report, const Options& opts,
                  const std::string& label, std::string& first, Result& res) {
  std::uint64_t failed = 0;
  for (const auto& task : report.profile.tasks)
    if (!task.ok) ++failed;
  res.attempted += report.profile.tasks.size();
  res.failed += failed;
  res.check(failed == 0, label + ": " + std::to_string(failed) +
                             " campaign tasks failed");
  res.check(!report.profile.tasks.empty(), label + ": no campaign task ran");

  const std::string fingerprint = report.science_fingerprint();
  if (first.empty()) {
    first = fingerprint;
    const std::string path = opts.out_dir + "/fingerprint.json";
    std::ofstream(path, std::ios::trunc) << fingerprint;
    res.files["fingerprint"] = path;
  }
  res.check(fingerprint == first,
            label + ": science fingerprint differs from the first pass");
}

}  // namespace

Result run_campaign(const Options& opts) {
  Result res;
  core::Target target;
  // Set-up precedes every pass, so its samples spread over the run.
  auto set_up = [&] {
    const double t0 = now_s();
    target = make_target(opts.seed);
    res.setup_s.push_back(now_s() - t0);
  };
  const core::ScienceConfig sci = science(opts.seed);
  core::ExecConfig exec;
  exec.threads = opts.workers;
  std::string fingerprint;

  // One untraced pass through the public one-call entry point.
  auto untraced_pass = [&](const core::ExecConfig& e, const std::string& label) {
    core::Campaign campaign(target, sci, e);
    const double t0 = now_s();
    const core::CampaignReport report = campaign.run();
    const double wall = now_s() - t0;
    check_report(report, opts, label, fingerprint, res);
    return wall;
  };

  if (!opts.trace) {
    const double start = now_s();
    do {
      set_up();
      const double wall = untraced_pass(exec, "pass " +
                                        std::to_string(res.op_s.size()));
      res.op_s.push_back(wall);
      res.busy_s += wall;
      res.items += static_cast<double>(kLibrary);
    } while (res.op_s.size() < 3 || now_s() - start < opts.seconds);
    return res;
  }

  set_up();
  // Traced run: the untraced reference, the traced pass, and a 1-worker
  // pass for the pool speedup. All three must agree on the science.
  res.extra["untraced_s"] = untraced_pass(exec, "untraced pass");

  obs::Recorder rec;
  {
    rct::LocalBackend local(opts.workers);
    core::ExecConfig traced = exec;
    traced.recorder = &rec;
    core::Campaign campaign(target, sci, traced);
    // The recorder runs on local.now() while the campaign is live, so the
    // benchmark's own span uses the same clock.
    const double t0 = local.now();
    const core::CampaignReport report = campaign.run(local);
    const double t1 = local.now();
    check_report(report, opts, "traced pass", fingerprint, res);
    obs::SpanRecord span;
    span.category = "bench";
    span.name = "campaign.run";
    span.start = t0;
    span.end = t1;
    span.arg("workers", static_cast<double>(opts.workers));
    span.arg("ligands", static_cast<double>(kLibrary));
    rec.emit(std::move(span));
    res.extra["traced_s"] = t1 - t0;
  }

  core::ExecConfig serial = exec;
  serial.threads = 1;
  res.extra["serial_s"] = untraced_pass(serial, "1-worker pass");
  write_trace(rec, opts, res);
  return res;
}

}  // namespace perfbench

// Full IMPECCABLE campaign at demo scale: the iterative
// ML1 -> S1 -> S3-CG -> S2 -> S3-FG loop over a synthetic compound library
// against one target, with the ML surrogate retrained from each iteration's
// docking results.
//
// With --pipelined, iteration i+1's ML1/S1 overlap iteration i's CG/S2/FG
// tail (cross-iteration pipelining); the science is bitwise identical.
//
//   $ ./examples/virtual_screening_campaign [--pipelined]

#include <cstdio>
#include <cstring>
#include <iostream>

#include "impeccable/core/campaign.hpp"

namespace core = impeccable::core;
namespace fe = impeccable::fe;

int main(int argc, char** argv) {
  // Science (what to screen, how hard) and execution (how to drive the run)
  // are separate configs; Campaign composes them.
  core::ScienceConfig sci;
  sci.library_size = 120;
  sci.iterations = 2;
  sci.bootstrap_docks = 24;
  sci.dock_top_fraction = 0.20;
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

  core::ExecConfig exec;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--pipelined") == 0) exec.pipeline_iterations = true;

  std::printf("IMPECCABLE campaign: library %zu, %d iterations%s\n\n",
              sci.library_size, sci.iterations,
              exec.pipeline_iterations ? " (cross-iteration pipelining)" : "");

  core::Target target = core::Target::make("PLPro-like", /*seed=*/6209, 50, 23);
  core::Campaign campaign(std::move(target), sci, exec);
  const auto report = campaign.run();

  // One JSON object per iteration (the obs::json path every tool consumes).
  for (const auto& it : report.iterations) {
    it.to_json(std::cout);
    std::printf("\n");
  }

  std::printf("\nexecution profile (JSON summary):\n");
  report.profile.to_json(std::cout);
  std::printf("\n");

  std::printf("\ntop CG binders:\n");
  const auto ranking = report.cg_ranking();
  for (std::size_t i = 0; i < ranking.size() && i < 5; ++i) {
    const auto* rec = ranking[i];
    std::printf("  %zu. %s  dock %.2f  dG(CG) %.2f +- %.2f", i + 1,
                rec->id.c_str(), rec->dock_score, rec->cg_energy,
                rec->cg_error);
    if (!rec->fg_energies.empty()) {
      double best_fg = rec->fg_energies[0];
      for (double e : rec->fg_energies) best_fg = std::min(best_fg, e);
      std::printf("  dG(FG, best conf) %.2f", best_fg);
    }
    std::printf("\n      %s\n", rec->smiles.c_str());
  }

  std::printf("\nflop tally:\n");
  for (const auto& [component, flops] : report.flops)
    std::printf("  %-6s %12.3e flops\n", component.c_str(),
                static_cast<double>(flops));
  return 0;
}

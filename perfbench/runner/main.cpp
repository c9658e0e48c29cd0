// perfbench_runner — runs one benchmark workload against the repository's
// public entry points and prints its raw measurements as one JSON line.
//
//   perfbench_runner --workload campaign|screen|serve --seed N
//                    --seconds S --trace 0|1 --out DIR
//
// `serve` is always traced: it is the companion of the screen workload's
// traced run, not a workload of its own.
//
// perfbench/run.py builds this binary, calls it, checks and aggregates the
// output; see perfbench/README.md for the workloads and metrics.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include <sched.h>

#include "util.hpp"

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") opts.workload = value;
    else if (key == "--seed") opts.seed = std::stoull(value);
    else if (key == "--seconds") opts.seconds = std::stod(value);
    else if (key == "--trace") opts.trace = value == "1";
    else if (key == "--out") opts.out_dir = value;
    else {
      std::fprintf(stderr, "perfbench_runner: unknown option %s\n", argv[i]);
      return 2;
    }
  }
  if (opts.out_dir.empty() || opts.seconds <= 0.0) {
    std::fprintf(stderr, "perfbench_runner: --out and --seconds > 0 required\n");
    return 2;
  }
  // Worker counts never exceed the CPUs this process may run on (nproc).
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc =
      sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? CPU_COUNT(&cpus) : 1;
  opts.workers = static_cast<std::size_t>(std::clamp(nproc, 1, 4));
  try {
    perfbench::Result res;
    if (opts.workload == "campaign") res = perfbench::run_campaign(opts);
    else if (opts.workload == "screen") res = perfbench::run_screen(opts);
    else if (opts.workload == "serve") res = perfbench::run_serve(opts);
    else {
      std::fprintf(stderr, "perfbench_runner: unknown workload '%s'\n",
                   opts.workload.c_str());
      return 2;
    }
    perfbench::print_result(opts, res);
    return res.errors.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
}

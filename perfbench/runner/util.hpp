#pragma once
// Shared plumbing of the benchmark runner: command-line options, the raw
// result every workload fills in, and the one-line JSON it is printed as.
// Statistics (medians, quantiles) and the per-layer table are computed by
// perfbench/run.py and perfbench/analyze.py from this raw output.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace impeccable::obs {
class Recorder;
}  // namespace impeccable::obs

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< run directory for stores, traces, fingerprints
  std::size_t workers = 1;  ///< min(4, hardware threads)
};

/// Raw measurements of one workload run.
struct Result {
  std::vector<double> setup_s;  ///< one entry per repeated set-up
  /// Latency of each timed operation, seconds: a Campaign::run or a
  /// score_ligands pass.
  std::vector<double> op_s;
  double items = 0.0;   ///< ligands completed in the timed phase
  double busy_s = 0.0;  ///< seconds the timed phase took
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed output checks
  std::map<std::string, double> extra;  ///< workload-specific raw values
  std::map<std::string, std::string> files;  ///< artifacts in out_dir

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

/// Steady-clock seconds (arbitrary epoch).
double now_s();

/// Peak resident set size of this process (VmHWM), kibibytes.
std::uint64_t peak_rss_kib();

/// Dump `rec`'s spans as Chrome trace JSON and its metrics registry as JSON
/// under `opts.out_dir`, recording both paths in `res.files`.
void write_trace(impeccable::obs::Recorder& rec, const Options& opts,
                 Result& res);

/// Print `res` as one JSON object on one line.
void print_result(const Options& opts, const Result& res);

Result run_campaign(const Options& opts);
Result run_screen(const Options& opts);
Result run_serve(const Options& opts);

}  // namespace perfbench

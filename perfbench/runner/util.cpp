#include "util.hpp"

#include <fstream>
#include <iostream>
#include <sstream>

#include "impeccable/obs/json.hpp"
#include "impeccable/obs/recorder.hpp"
#include "impeccable/obs/trace_export.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::uint64_t kib = 0;
      fields >> kib;
      return kib;
    }
  }
  return 0;
}

void write_trace(impeccable::obs::Recorder& rec, const Options& opts,
                 Result& res) {
  const std::string trace_path = opts.out_dir + "/trace.json";
  const std::string metrics_path = opts.out_dir + "/metrics.json";
  impeccable::obs::write_chrome_trace(rec.take(), trace_path);
  std::ofstream metrics(metrics_path, std::ios::trunc);
  rec.metrics().to_json(metrics);
  res.files["trace"] = trace_path;
  res.files["metrics"] = metrics_path;
}

void print_result(const Options& opts, const Result& res) {
  namespace json = impeccable::obs::json;
  json::Writer w(std::cout);
  auto array = [&w](const char* key, const std::vector<double>& values) {
    w.key(key).begin_array();
    for (const double v : values) w.value(v);
    w.end_array();
  };
  w.begin_object()
      .kv("workload", opts.workload)
      .kv("seed", opts.seed)
      .kv("trace", opts.trace)
      .kv("workers", static_cast<std::uint64_t>(opts.workers))
      .kv("compiler", __VERSION__)
      .kv("build_type", PERFBENCH_BUILD_TYPE)
      .kv("cxx_flags", PERFBENCH_CXX_FLAGS);
  array("setup_s", res.setup_s);
  array("op_s", res.op_s);
  w.kv("items", res.items)
      .kv("busy_s", res.busy_s)
      .kv("attempted", res.attempted)
      .kv("failed", res.failed)
      .kv("peak_rss_kib", peak_rss_kib());
  w.key("errors").begin_array();
  for (const std::string& e : res.errors) w.value(e);
  w.end_array().key("extra").begin_object();
  for (const auto& [k, v] : res.extra) w.kv(k, v);
  w.end_object().key("files").begin_object();
  for (const auto& [k, v] : res.files) w.kv(k, v);
  w.end_object().end_object();
  std::cout << std::endl;
}

}  // namespace perfbench

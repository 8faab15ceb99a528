// Repository benchmark binary (run through perfbench/run.py, which
// builds it and passes the provenance arguments).
//
//   scnn_perfbench --workload <precision-sweep|serve-closed>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <file>] [--git-sha <sha>] [--source-digest <hex>]
//
// Prints one meta line ({"meta": {...}}) and, last, the result line
// {"correct", "attempted", "failed", "metrics"}. Exit status 0 means the run
// finished and every check passed; a failed check still prints its result.
#include <iostream>
#include <map>
#include <string>

#include "common/cpu_features.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const std::string& why) {
  std::cerr << "scnn_perfbench: " << why
            << "\nusage: scnn_perfbench --workload <precision-sweep|serve-closed> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--git-sha <sha>] [--source-digest <hex>]\n";
  return 2;
}

bool parse(int argc, char** argv, RunArgs& args, std::string& err) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      err = "missing value for " + key;
      return false;
    }
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (key == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        args.seed = std::stoull(value, &used);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value, &used);
        if (!(args.seconds > 0.0 && args.seconds <= 600.0)) throw std::out_of_range(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") throw std::invalid_argument(value);
        args.trace = value == "1";
      } else if (key == "--trace-out") {
        args.trace_out = value;
      } else if (key == "--git-sha") {
        args.git_sha = value;
      } else if (key == "--source-digest") {
        args.source_digest = value;
      } else {
        err = "unknown argument " + key;
        return false;
      }
      if (used != 0 && used != value.size()) throw std::invalid_argument(value);
    } catch (const std::exception&) {
      err = "bad value '" + value + "' for " + key;
      return false;
    }
  }
  if (!have_workload) err = "--workload is required";
  return have_workload;
}

void print_meta(const RunArgs& args, const Outcome& out) {
  std::map<std::string, std::string> meta = out.meta;
  meta["workload"] = args.workload;
  meta["seed"] = std::to_string(args.seed);
  meta["seconds"] = fmt_double(args.seconds);
  meta["trace"] = args.trace ? "1" : "0";
  meta["git_sha"] = args.git_sha;
  meta["source_digest"] = args.source_digest;
  meta["nproc"] = std::to_string(nproc());
  meta["cpu_features"] = scnn::common::cpu_features_summary();
  meta["compiler"] = PB_COMPILER;
  meta["flags"] = PB_FLAGS;
  meta["build_type"] = PB_BUILD_TYPE;
  std::string line = "{\"meta\": {";
  bool first = true;
  for (const auto& [k, v] : meta) {
    line += (first ? "\"" : ", \"") + json_escape(k) + "\": \"" + json_escape(v) + "\"";
    first = false;
  }
  std::cout << line << "}}\n";
}

void print_result(const Outcome& out) {
  std::string line = std::string("{\"correct\": ") + (out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : out.metrics.values) {
    line += (first ? "\"" : ", \"") + json_escape(name) + "\": {\"value\": " +
            fmt_double(vu.first) + ", \"unit\": \"" + json_escape(vu.second) + "\"}";
    first = false;
  }
  std::cout << line << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  if (std::string err; !parse(argc, argv, args, err)) return usage(err);
  Outcome (*run)(const RunArgs&, SpanLog&) = nullptr;
  if (args.workload == "precision-sweep") run = run_precision_sweep;
  if (args.workload == "serve-closed") run = run_serve_closed;
  if (!run) return usage("unknown workload '" + args.workload + "'");

  // The oracles judge every workload's outputs, so they are checked first.
  if (const auto fails = self_test(); !fails.empty()) {
    for (const std::string& f : fails) std::cerr << "self-test: " << f << "\n";
    return 3;
  }

  const auto origin = Clock::now();
  SpanLog spans;
  Outcome out;
  try {
    out = run(args, spans);
  } catch (const std::exception& e) {
    std::cerr << "scnn_perfbench: " << args.workload << " aborted: " << e.what() << "\n";
    return 4;
  }
  if (args.trace && !args.trace_out.empty() && !spans.write_chrome_json(args.trace_out, origin)) {
    out.correct = false;
    out.errors.push_back("could not write the trace to " + args.trace_out);
  }
  for (const std::string& e : out.errors) std::cerr << "check failed: " << e << "\n";
  print_meta(args, out);
  print_result(out);
  return out.correct ? 0 : 1;
}

// Shared plumbing of the repository benchmark: clocks, order statistics,
// the result line, comparability meta and the in-memory span recorder.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace scnn::common {}
namespace scnn::data {}
namespace scnn::nn {}
namespace scnn::serve {}

namespace perfbench {

namespace common = scnn::common;
namespace data = scnn::data;
namespace nn = scnn::nn;
namespace serve = scnn::serve;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
[[nodiscard]] double mean(const std::vector<double>& v);

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mib();

/// Hardware threads the workloads size themselves to.
[[nodiscard]] int nproc();

/// The quantile, from the fast end, that every timing metric of an untraced
/// run is read from: a shared host can run the same single-threaded code up
/// to half again slower for seconds at a time, so medians and whole-run
/// rates follow the neighbours' load while the fast end follows the code.
constexpr double kFastQuantile = 0.02;

/// Set-ups per untraced run. Each builds the workload afresh and then serves
/// the next 1/kSetups of the timed loop, so the set-up times, whose median is
/// setup_s, are spread over the run like the timed operations are.
constexpr int kSetups = 6;

/// Command-line settings every workload receives.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;      ///< where the traced run writes its spans
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

/// Metrics keyed by name -> (value, unit), printed in name order.
struct Metrics {
  std::map<std::string, std::pair<double, std::string>> values;
  void set(const std::string& name, double value, const std::string& unit) {
    values[name] = {value, unit};
  }
};

/// What a workload hands back to main().
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  /// Comparability meta specific to the workload (resolved backend and
  /// sparsity per engine configuration, sizes, thread and client counts).
  std::map<std::string, std::string> meta;
  std::vector<std::string> errors;  ///< why `correct` is false
};

/// Folds `part` into `into`: counts add up, correctness and errors
/// accumulate, and metrics and meta already present in `into` are kept.
void merge_outcome(Outcome& into, Outcome&& part);

/// One span of the traced run: a timed public call made by the benchmark.
struct Span {
  std::string name;
  Clock::time_point start, end;
  std::uint64_t id = 0;      ///< unique per span
  std::uint64_t parent = 0;  ///< id of the enclosing span (0 = none)
  std::uint64_t group = 0;   ///< operation the span belongs to (pass/request)
  int tid = 0;               ///< timeline row (client thread, 0 = main)
};

/// Spans kept in memory for the whole traced run and written once, at the
/// end, as a chrome://tracing JSON document. Not thread-safe: each client
/// thread records into its own instance and merge() joins them afterwards.
class SpanLog {
 public:
  /// Keep `s`, assigning it a fresh id unless it already holds one reserved
  /// with next_id() (a parent recorded after its children); returns the id.
  std::uint64_t add(Span s);
  [[nodiscard]] std::uint64_t next_id() { return ++last_id_ + id_base_; }
  void merge(SpanLog&& other);
  /// Ids of this log start above `base` so per-thread logs never collide.
  void set_id_base(std::uint64_t base) { id_base_ = base; }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  bool write_chrome_json(const std::string& path, Clock::time_point origin) const;

 private:
  std::vector<Span> spans_;
  std::uint64_t last_id_ = 0;
  std::uint64_t id_base_ = 0;
};

/// Formats a double with every significant digit (round-trippable).
[[nodiscard]] std::string fmt_double(double v);
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace perfbench

#include "util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of the sample at or
  // below it.
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  if (rank > v.size()) rank = v.size();
  return v[rank - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double peak_rss_mib() {
  // VmHWM, not getrusage(): ru_maxrss survives execve, so it would count the
  // launcher's pages from before this program started.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

int nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void merge_outcome(Outcome& into, Outcome&& part) {
  into.correct = into.correct && part.correct;
  into.attempted += part.attempted;
  into.failed += part.failed;
  into.metrics.values.merge(part.metrics.values);
  into.meta.merge(part.meta);
  for (std::string& e : part.errors) into.errors.push_back(std::move(e));
}

std::uint64_t SpanLog::add(Span s) {
  if (s.id == 0) s.id = next_id();
  const std::uint64_t id = s.id;
  spans_.push_back(std::move(s));
  return id;
}

void SpanLog::merge(SpanLog&& other) {
  spans_.insert(spans_.end(), std::make_move_iterator(other.spans_.begin()),
                std::make_move_iterator(other.spans_.end()));
  other.spans_.clear();
}

bool SpanLog::write_chrome_json(const std::string& path, Clock::time_point origin) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << json_escape(s.name) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.tid << ",\"ts\":" << fmt_double(us_between(origin, s.start))
        << ",\"dur\":" << fmt_double(us_between(s.start, s.end)) << ",\"args\":{\"id\":"
        << s.id << ",\"parent\":" << s.parent << ",\"group\":" << s.group << "}}\n";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

std::string fmt_double(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace perfbench

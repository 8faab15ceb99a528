// The benchmark's workloads, and the traced measurements that give the
// per-layer metrics. Each traced run measures its own workload's layers and
// takes the layers that workload bypasses from a short probe of the workload
// that exercises them, so every traced run reports the full per-layer set.
#pragma once

#include "util.hpp"

namespace perfbench {

[[nodiscard]] Outcome run_precision_sweep(const RunArgs& args, SpanLog& spans);
[[nodiscard]] Outcome run_serve_closed(const RunArgs& args, SpanLog& spans);

/// Traced measurements of precision-sweep (every nn.* and common.* metric)
/// and of serve-closed (serve.*), each run for about `budget_s` seconds and
/// at least one whole round.
void trace_precision_sweep(std::uint64_t seed, double budget_s, SpanLog& spans,
                           Outcome& out);
void trace_serve_closed(std::uint64_t seed, double budget_s, SpanLog& spans, Outcome& out);

}  // namespace perfbench

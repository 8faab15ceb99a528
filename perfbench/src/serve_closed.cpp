// serve-closed: serve::Server serving the MNIST LeNet net with the proposed
// engine at N = 8 — 2 workers x 1 session thread, max_batch 8, the default
// queue and flight recorder, one tenant — driven by 4 closed-loop clients
// cycling over a fixed set of synthetic digits. It is the request path
// (admission, micro-batching, small forwards, future resolution) with no
// intra-op threading. The loop is closed because this service's callers
// wait for their reply, and because an open loop at a fixed rate on a
// shared host would swing its backlog with the neighbours' load.
#include <algorithm>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic_digits.hpp"
#include "nn/inference_session.hpp"
#include "nn/network.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kDigits = 64;   // the fixed request set the clients cycle over
constexpr int kCalibration = 16;
constexpr int kClients = 4;
// The timed loop is cut into slices this long; each timing metric is read
// at the fast end of its per-slice values.
constexpr double kSliceS = 0.25;
// Client sample buffers are allocated and touched up front, sized for this
// many requests per client-second, so the peak RSS does not depend on how
// many requests a run happened to complete.
constexpr double kSamplesPerClientS = 2000;

nn::EngineConfig engine_config() {
  return {.kind = nn::EngineKind::kProposed, .n_bits = 8, .threads = 1};
}

serve::ServerOptions server_options() {
  serve::ServerOptions opts;
  opts.workers = 2;
  opts.session_threads = 1;
  opts.max_batch = 8;
  opts.engine = engine_config();
  return opts;
}

serve::Request request_for(const nn::Tensor& digit) {
  serve::Request req;
  req.input = digit;
  return req;
}

/// The served deployment, warmed up and ready to time.
struct Rig {
  std::vector<nn::Tensor> digits;  // one sample each
  nn::Tensor calibration;
  std::vector<float> params;
  std::uint64_t net_seed = 0;
  std::unique_ptr<serve::Server> server;
  std::vector<nn::Tensor> seen;  // [digit] logits served during warm-up
  double start_ms = 0.0;
};

Rig make_rig(std::uint64_t seed) {
  Rig rig;
  const data::Dataset set = data::make_synthetic_digits({.count = kDigits, .seed = seed});
  for (int i = 0; i < kDigits; ++i) rig.digits.push_back(nn::batch_slice(set.images, i, 1));
  rig.calibration = nn::batch_slice(set.images, 0, kCalibration);
  rig.net_seed = 1234 + seed;
  rig.params = nn::make_mnist_net(28, 1, rig.net_seed).save_parameters();
  const std::uint64_t net_seed = rig.net_seed;
  const auto t0 = Clock::now();
  rig.server = std::make_unique<serve::Server>(
      [net_seed] { return nn::make_mnist_net(28, 1, net_seed); }, server_options(), rig.params,
      &rig.calibration);
  rig.start_ms = seconds_between(t0, Clock::now()) * 1e3;
  // Warm-up: every digit once, all in flight together.
  std::vector<serve::Ticket> tickets;
  for (const nn::Tensor& d : rig.digits) tickets.push_back(rig.server->submit(request_for(d)));
  for (serve::Ticket& t : tickets) rig.seen.push_back(t.get().logits);
  return rig;
}

/// What one client saw of one request.
struct Sample {
  double latency_us, submit_us, queue_us, run_us, total_us;
  int batch_size;
  double done_s;  // completion time since the loop started
};

struct ClientLog {
  std::vector<Sample> samples;
  std::size_t used = 0;  // samples[0, used) are filled
  std::vector<std::uint64_t> matched;  // per digit: responses equal to warm-up
  std::uint64_t failed = 0;
  SpanLog spans;
};

/// kClients closed-loop clients until `seconds` have passed; client c sends
/// digits c, c + kClients, ... so no two clients share a digit.
std::vector<ClientLog> closed_loop(Rig& rig, double seconds, bool trace) {
  std::vector<ClientLog> logs(kClients);
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&rig, &logs, c, start, deadline, seconds, trace] {
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      log.matched.assign(kDigits, 0);
      log.samples.resize(static_cast<std::size_t>(seconds * kSamplesPerClientS) + 1);
      log.spans.set_id_base(static_cast<std::uint64_t>(c + 1) << 40);
      for (int i = c;; i += kClients) {
        const auto t0 = Clock::now();
        if (t0 >= deadline) break;
        const int d = i % kDigits;
        serve::Ticket ticket = rig.server->submit(request_for(rig.digits[static_cast<std::size_t>(d)]));
        const auto t1 = Clock::now();
        const serve::Response r = ticket.get();
        const auto t2 = Clock::now();
        const nn::Tensor& want = rig.seen[static_cast<std::size_t>(d)];
        if (r.status != serve::Status::kOk || !r.logits.same_shape(want) ||
            std::memcmp(r.logits.data().data(), want.data().data(),
                        want.size() * sizeof(float)) != 0)
          ++log.failed;
        else
          ++log.matched[static_cast<std::size_t>(d)];
        const Sample sample{us_between(t0, t2), us_between(t0, t1), r.queue_us, r.run_us,
                            r.total_us, r.batch_size, seconds_between(start, t2)};
        if (log.used < log.samples.size())
          log.samples[log.used] = sample;
        else
          log.samples.push_back(sample);
        ++log.used;
        if (trace) {
          const std::uint64_t id = log.spans.next_id();
          log.spans.add({.name = "submit", .start = t0, .end = t1, .parent = id,
                         .group = r.request_id, .tid = c + 1});
          log.spans.add({.name = "get", .start = t1, .end = t2, .parent = id,
                         .group = r.request_id, .tid = c + 1});
          log.spans.add({.name = "request", .start = t0, .end = t2, .id = id,
                         .group = r.request_id, .tid = c + 1});
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (ClientLog& log : logs) log.samples.resize(log.used);
  return logs;
}

/// Served logits must equal a direct single-request forward of the same
/// checkpoint. Timed responses were compared with the warm-up ones, so when a
/// digit's warm-up logits are wrong, every response that matched them fails.
std::uint64_t failed_against_direct(const Rig& rig, const std::vector<ClientLog>& logs,
                                    Outcome& out) {
  nn::InferenceSession direct(nn::make_mnist_net(28, 1, rig.net_seed), 1);
  direct.network().load_parameters(rig.params);
  direct.calibrate(rig.calibration);
  direct.set_engine(engine_config());
  std::uint64_t failed = 0;
  for (int d = 0; d < kDigits; ++d) {
    const nn::Tensor want = direct.forward(rig.digits[static_cast<std::size_t>(d)]);
    const nn::Tensor& got = rig.seen[static_cast<std::size_t>(d)];
    if (got.same_shape(want) &&
        std::memcmp(got.data().data(), want.data().data(), want.size() * sizeof(float)) == 0)
      continue;
    for (const ClientLog& log : logs) failed += log.matched[static_cast<std::size_t>(d)];
    out.errors.push_back("digit " + std::to_string(d) + ": served logits differ from a direct forward");
  }
  return failed;
}

void describe(Outcome& out) {
  const serve::ServerOptions opts = server_options();
  out.meta["serve.workers"] = std::to_string(opts.workers);
  out.meta["serve.session_threads"] = std::to_string(opts.session_threads);
  out.meta["serve.max_batch"] = std::to_string(opts.max_batch);
  out.meta["serve.clients"] = std::to_string(kClients);
  out.meta["serve.digits"] = std::to_string(kDigits);
  nn::InferenceSession probe(nn::make_mnist_net(), engine_config());
  const nn::MacEngine::Description d = probe.engine()->describe();
  out.meta["serve.engine.proposed-8"] = d.backend + "/" + d.sparsity;
}

/// Counts, checks and flattens the client logs into `out`.
std::vector<Sample> collect(Rig& rig, std::vector<ClientLog>& logs, SpanLog* spans, Outcome& out) {
  std::vector<Sample> all;
  for (ClientLog& log : logs) {
    out.attempted += log.samples.size();
    out.failed += log.failed;
    all.insert(all.end(), log.samples.begin(), log.samples.end());
    if (spans) spans->merge(std::move(log.spans));
  }
  out.failed += failed_against_direct(rig, logs, out);
  out.correct = out.correct && out.errors.empty();
  return all;
}

}  // namespace

void trace_serve_closed(std::uint64_t seed, double budget_s, SpanLog& spans, Outcome& out) {
  Outcome own;
  describe(own);
  Rig rig = make_rig(seed);
  std::vector<ClientLog> logs = closed_loop(rig, budget_s, true);
  const std::vector<Sample> all = collect(rig, logs, &spans, own);
  rig.server->drain();

  // Reconciliation: the server's own parts of a response add up to its
  // total, and the client saw at least that total.
  std::vector<double> submit, queue, wait, run, resolve, batch;
  std::uint64_t unreconciled = 0;
  for (const Sample& s : all) {
    const double batch_wait = s.total_us - s.queue_us - s.run_us;
    if (batch_wait < -1e-6 || s.latency_us < s.total_us) ++unreconciled;
    submit.push_back(s.submit_us);
    queue.push_back(s.queue_us);
    wait.push_back(batch_wait);
    run.push_back(s.run_us / s.batch_size);
    resolve.push_back(s.latency_us - s.total_us);
    batch.push_back(s.batch_size);
  }
  if (unreconciled)
    own.errors.push_back(std::to_string(unreconciled) +
                         " responses where queue + batch_wait + run != total or latency < total");
  own.correct = own.correct && own.errors.empty();
  Metrics& m = own.metrics;
  m.set("serve.submit_us", median(submit), "us");
  m.set("serve.queue_us", median(queue), "us");
  m.set("serve.batch_wait_us", median(wait), "us");
  m.set("serve.run_us_per_request", median(run), "us");
  m.set("serve.batch_size_mean", mean(batch), "requests");
  m.set("serve.resolve_us", median(resolve), "us");
  m.set("serve.start_ms", rig.start_ms, "ms");
  std::vector<double> latency;
  for (const Sample& s : all) latency.push_back(s.latency_us);
  std::cerr << "info: traced serve-closed latency_p50_us " << median(latency) << " req_per_s "
            << static_cast<double>(all.size()) / budget_s << "\n";
  merge_outcome(out, std::move(own));
}

Outcome run_serve_closed(const RunArgs& args, SpanLog& spans) {
  Outcome out;
  if (args.trace) {
    trace_serve_closed(args.seed, args.seconds * 0.6, spans, out);
    trace_precision_sweep(args.seed, args.seconds * 0.4, spans, out);
    return out;
  }
  describe(out);
  std::vector<double> setups, rates, p50s, p90s;
  for (int k = 0; k < kSetups; ++k) {
    const auto t0 = Clock::now();
    Rig rig = make_rig(args.seed);
    setups.push_back(seconds_between(t0, Clock::now()));
    std::vector<ClientLog> logs = closed_loop(rig, args.seconds / kSetups, false);
    const std::vector<Sample> slice = collect(rig, logs, nullptr, out);
    rig.server->drain();
    // Completion rate per kSliceS: (completions - 1) over the span from the
    // first to the last completion in it, so the rate is not quantized.
    const std::size_t n = std::max<std::size_t>(1, static_cast<std::size_t>(args.seconds / kSetups / kSliceS));
    std::vector<double> first(n, 1e300), last(n, -1.0);
    std::vector<std::vector<double>> latency(n);
    for (const Sample& s : slice) {
      const auto i = std::min(n - 1, static_cast<std::size_t>(s.done_s / kSliceS));
      first[i] = std::min(first[i], s.done_s);
      last[i] = std::max(last[i], s.done_s);
      latency[i].push_back(s.latency_us);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto count = static_cast<double>(latency[i].size());
      if (count < 2 || last[i] <= first[i]) continue;
      rates.push_back((count - 1) / (last[i] - first[i]));
      p50s.push_back(quantile(latency[i], 0.50));
      p90s.push_back(quantile(latency[i], 0.90));
    }
  }
  // README, "Steadiness": the fast end of the slices is where the code, not
  // the neighbours' load, sets the figure.
  const double rate = quantile(rates, 1.0 - kFastQuantile);
  out.metrics.set("req_per_s", rate, "req/s");
  out.metrics.set("imgs_per_s", rate, "imgs/s");
  out.metrics.set("latency_p50_us", quantile(p50s, kFastQuantile), "us");
  out.metrics.set("latency_p90_us", quantile(p90s, kFastQuantile), "us");
  out.metrics.set("setup_s", median(setups), "s");
  out.metrics.set("peak_rss_mib", peak_rss_mib(), "MiB");
  return out;
}

}  // namespace perfbench

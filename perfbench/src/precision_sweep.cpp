// precision-sweep: the Fig. 6 evaluation loop, {fixed, sc-lfsr, proposed} x
// N in {6, 8, 10}, on a CIFAR-quick checkpoint with 75% of its conv weights
// zeroed. Each configuration forwards the whole test set before the sweep
// moves on; the engines are built during set-up. LUT sizes run from 8 KiB to
// 2 MiB, fixed and proposed zero-skip while sc-lfsr runs dense, and quantize
// and im2col weigh more than on a dense net. The timed passes run on one
// thread; the traced run adds nproc-thread passes for the executor's metrics
// and gives every nn.* and common.* per-layer metric.
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "data/synthetic_objects.hpp"
#include "nn/conv2d.hpp"
#include "nn/inference_session.hpp"
#include "nn/network.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// Images per forward pass: large enough that each parallel_for call of the
// traced nproc-thread passes carries milliseconds of work against its ~30 us
// dispatch cost.
constexpr int kBatch = 64;
constexpr int kImages = 64;         // the test set: one pass per configuration
constexpr int kOracleSamples = 48;  // conv outputs checked per layer and config
constexpr double kPrunedShare = 0.75;
// Traced passes: the layer spans of a pass must cover the pass span to within
// this share of it, summed over the run.
constexpr double kReconcileTolerance = 0.01;

bool same_bits(const nn::Tensor& a, const nn::Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(float)) == 0;
}

std::string config_name(const nn::EngineConfig& cfg) {
  return nn::to_string(cfg.kind) + "-" + std::to_string(cfg.n_bits);
}

/// Network, inputs and engines of one CIFAR workload, ready to time.
struct Rig {
  std::vector<nn::Tensor> batches;
  std::unique_ptr<nn::InferenceSession> session;
  std::vector<nn::EngineConfig> configs;
  std::vector<std::vector<nn::Tensor>> ref;  // [config][batch] warm-up logits
  double engine_build_ms = 0.0;
  // Session threads of the timed passes. On a shared host, more threads made
  // pass times swing with the neighbours' load (README, "Steadiness").
  int threads = 1;
  int wide = 1;  // threads of the traced executor passes and the identity check
};

Rig make_rig(std::uint64_t seed) {
  Rig rig;
  rig.wide = nproc();
  const data::Dataset set =
      data::make_synthetic_objects({.count = kImages, .image_size = 32, .seed = seed});
  for (int first = 0; first < kImages; first += kBatch)
    rig.batches.push_back(nn::batch_slice(set.images, first, kBatch));

  nn::Network net = nn::make_cifar_net(32, 1, 4321 + seed);
  common::SplitMix64 rng(seed ^ 0x5eedULL);
  for (nn::Conv2D* conv : net.conv_layers())
    for (float& v : conv->mutable_weight().data())
      if (rng.next_double() < kPrunedShare) v = 0.0f;
  rig.session = std::make_unique<nn::InferenceSession>(std::move(net), rig.threads);
  rig.session->calibrate(rig.batches.front());

  for (const auto kind :
       {nn::EngineKind::kFixed, nn::EngineKind::kScLfsr, nn::EngineKind::kProposed})
    for (const int n : {6, 8, 10})
      rig.configs.push_back({.kind = kind, .n_bits = n, .threads = rig.threads});
  for (const nn::EngineConfig& cfg : rig.configs) {
    const auto t0 = Clock::now();
    rig.session->set_engine(cfg);
    rig.engine_build_ms += seconds_between(t0, Clock::now()) * 1e3;
  }
  // Warm-up: one whole round; its logits are what every timed pass must
  // reproduce bit for bit.
  rig.ref.resize(rig.configs.size());
  for (std::size_t c = 0; c < rig.configs.size(); ++c) {
    rig.session->set_engine(rig.configs[c]);
    for (const nn::Tensor& batch : rig.batches) rig.ref[c].push_back(rig.session->forward(batch));
  }
  return rig;
}

/// Forward layer by layer through the public Layer::forward, calling
/// `visit(layer_index, input, output)` after each layer.
template <typename Visit>
nn::Tensor forward_layers(nn::Network& net, const nn::Tensor& input, Visit&& visit) {
  nn::Tensor cur = input;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    nn::Tensor next = net.layer(i).forward(cur);
    visit(i, cur, next);
    cur = std::move(next);
  }
  return cur;
}

/// Checks that hold outside the timed loop: the nproc-thread logits equal
/// the one-thread reference, and sampled conv outputs of every configuration
/// match the benchmark's oracles (sc-lfsr against the bit-level stream model).
void verify_rig(Rig& rig, std::uint64_t seed, Outcome& out) {
  nn::InferenceSession& s = *rig.session;
  for (std::size_t c = 0; c < rig.configs.size(); ++c) {
    const nn::EngineConfig& one = rig.configs[c];
    s.set_engine(one);
    s.set_threads(rig.wide);
    const std::string name = config_name(one);
    for (std::size_t b = 0; b < rig.batches.size(); ++b)
      if (!same_bits(s.forward(rig.batches[b]), rig.ref[c][b]))
        out.errors.push_back(name + ": logits differ between " + std::to_string(rig.threads) +
                             " and " + std::to_string(rig.wide) + " threads");
    s.set_threads(rig.threads);
    const ConvOracle oracle(one.kind, one.n_bits, one.accum_bits);
    std::uint64_t sample_seed = seed * 131 + c;
    const nn::Tensor logits =
        forward_layers(s.network(), rig.batches.front(),
                       [&](std::size_t i, const nn::Tensor& in, const nn::Tensor& y) {
                         const auto* conv = dynamic_cast<const nn::Conv2D*>(&s.network().layer(i));
                         if (!conv) return;
                         if (std::string err = oracle.check(*conv, in, y, ++sample_seed,
                                                            kOracleSamples);
                             !err.empty())
                           out.errors.push_back(name + " layer " + std::to_string(i) + ": " + err);
                       });
    if (!same_bits(logits, rig.ref[c].front()))
      out.errors.push_back(name + ": layer-by-layer logits differ from session.forward");
  }
  s.set_engine(rig.configs.front());
  out.correct = out.correct && out.errors.empty();
}

void describe_rig(Rig& rig, Outcome& out) {
  out.meta["threads"] = std::to_string(rig.threads);
  out.meta["threads.traced_wide"] = std::to_string(rig.wide);
  out.meta["batch_images"] = std::to_string(kBatch);
  out.meta["images"] = std::to_string(kImages);
  for (const nn::EngineConfig& cfg : rig.configs) {
    rig.session->set_engine(cfg);
    const nn::MacEngine::Description d = rig.session->engine()->describe();
    out.meta["engine." + config_name(cfg)] = d.backend + "/" + d.sparsity;
  }
  rig.session->set_engine(rig.configs.front());
}

/// mac_rows replay of one conv layer: the layer's own patch matrix (built
/// here from its input, one output row at a time, as the layer's im2col
/// does) against its own weight rows, handed over as the view the engine
/// would receive. Only the mac_rows calls are timed.
struct Replay {
  const nn::Conv2D* conv = nullptr;
  std::vector<std::int32_t> codes;  // quantized input, [n][z][y][x]
  std::vector<std::int32_t> wq;
  int n = 0, h = 0, w = 0, out_rows = 0, cols = 0, dd = 0;
  std::uint64_t products = 0;

  Replay(const nn::Conv2D& layer, const nn::Tensor& x, int n_bits)
      : conv(&layer), n(x.n()), h(x.h()), w(x.w()) {
    const int K = layer.kernel(), S = layer.stride(), P = layer.pad();
    out_rows = (h + 2 * P - K) / S + 1;
    cols = (w + 2 * P - K) / S + 1;
    dd = layer.in_channels() * K * K;
    wq = layer.quantized_weights(n_bits);
    const float as = layer.activation_scale();
    for (const float v : x.data()) codes.push_back(quantize_code(v / as, n_bits));
    products = static_cast<std::uint64_t>(n) * out_rows * cols * dd * layer.out_channels();
  }

  /// Patches of output row r of image img, columns [c0, c0 + tc).
  void build_block(int img, int r, int c0, int tc, std::vector<std::int32_t>& block) const {
    const int K = conv->kernel(), S = conv->stride(), P = conv->pad(), Z = conv->in_channels();
    block.assign(static_cast<std::size_t>(tc) * dd, 0);
    std::size_t idx = 0;
    for (int c = c0; c < c0 + tc; ++c)
      for (int z = 0; z < Z; ++z)
        for (int i = 0; i < K; ++i)
          for (int j = 0; j < K; ++j, ++idx) {
            const int yy = S * r + i - P, xx = S * c + j - P;
            if (yy >= 0 && yy < h && xx >= 0 && xx < w)
              block[idx] = codes[((static_cast<std::size_t>(img) * Z + z) * h + yy) * w + xx];
          }
  }

  /// Runs every mac_rows call of the layer once; returns the milliseconds
  /// spent in them. With `y` given, also checks the replay reproduces the
  /// layer output.
  double run(const nn::MacEngine& engine, const nn::Tensor* y, bool* matches) const {
    const int M = conv->out_channels();
    const int tile = conv->im2col_tile() > 0 ? std::min(conv->im2col_tile(), cols) : cols;
    const nn::PackedRowCodes* packed =
        engine.zero_skip() ? &conv->packed_weight_codes(engine.bits()) : nullptr;
    const float out_scale = conv->weight_scale() * conv->activation_scale() /
                            static_cast<float>(std::int64_t{1} << (engine.bits() - 1));
    std::vector<std::int64_t> acc(static_cast<std::size_t>(tile));
    std::vector<std::int32_t> block;
    nn::MacStats stats;
    std::int64_t sink = 0;
    const std::span<const std::int32_t> weights(wq);
    Clock::duration busy{};
    for (int img = 0; img < n; ++img) {
      for (int r = 0; r < out_rows; ++r) {
        for (int c0 = 0; c0 < cols; c0 += tile) {
          const int tc = std::min(tile, cols - c0);
          build_block(img, r, c0, tc, block);
          const auto out = std::span(acc).first(static_cast<std::size_t>(tc));
          const auto t0 = Clock::now();
          for (int m = 0; m < M; ++m) {
            const auto wrow = weights.subspan(static_cast<std::size_t>(m) * dd, dd);
            const nn::WeightCodeView view = packed ? nn::WeightCodeView::packed_row(wrow, *packed, m)
                                                   : nn::WeightCodeView(wrow);
            engine.mac_rows(view, block, out, stats);
            sink += acc[0];
            if (y)
              for (int c = 0; c < tc; ++c) {
                const float want = static_cast<float>(acc[static_cast<std::size_t>(c)]) * out_scale +
                                   conv->bias().at(m, 0, 0, 0);
                if (want != y->at(img, m, r, c0 + c)) *matches = false;
              }
          }
          busy += Clock::now() - t0;
        }
      }
    }
    volatile std::int64_t keep = sink;  // the replay's results stay observable
    (void)keep;
    return std::chrono::duration<double, std::milli>(busy).count();
  }
};

/// Per-configuration samples of the traced run.
struct ConfigTrace {
  std::vector<std::vector<double>> conv_ms, conv_t1_ms, replay_ms;  // [conv][sample]
  std::vector<double> float_ms, pass_ms, pass_t1_ms;
  std::vector<Replay> replays;
  nn::MacStats stats;
};

struct TraceTotals {
  double pass_ms = 0.0, layer_ms = 0.0;
  std::uint64_t group = 0;
};

/// One traced pass: a span around the pass and one per Layer::forward.
nn::Tensor traced_pass(nn::Network& net, const nn::Tensor& batch, SpanLog& spans,
                       TraceTotals& totals, std::vector<double>* conv_ms, double* float_ms,
                       double* pass_ms, const char* pass_name) {
  const std::uint64_t group = ++totals.group;
  const std::uint64_t pass_id = spans.next_id();
  double layers = 0.0, floats = 0.0;
  std::size_t conv_index = 0;
  const auto p0 = Clock::now();
  nn::Tensor cur = batch;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    nn::Layer& layer = net.layer(i);
    const auto t0 = Clock::now();
    nn::Tensor next = layer.forward(cur);
    const auto t1 = Clock::now();
    const double ms = seconds_between(t0, t1) * 1e3;
    layers += ms;
    const bool is_conv = dynamic_cast<const nn::Conv2D*>(&layer) != nullptr;
    spans.add({.name = (is_conv ? "conv" + std::to_string(conv_index) : layer.name()) + ".forward",
               .start = t0, .end = t1, .parent = pass_id, .group = group});
    if (is_conv) {
      (*conv_ms)[conv_index++] = ms;
    } else {
      floats += ms;
    }
    cur = std::move(next);
  }
  const auto p1 = Clock::now();
  spans.add({.name = pass_name, .start = p0, .end = p1, .id = pass_id, .group = group});
  *pass_ms = seconds_between(p0, p1) * 1e3;
  if (float_ms) *float_ms = floats;
  totals.pass_ms += *pass_ms;
  totals.layer_ms += layers;
  return cur;
}

double dispatch_us(int threads) {
  common::ThreadPool pool(threads);
  std::vector<double> samples;
  for (int i = 0; i < 2200; ++i) {
    const auto t0 = Clock::now();
    common::parallel_for(&pool, threads, [](std::int64_t, std::int64_t, int) {});
    if (i >= 200) samples.push_back(us_between(t0, Clock::now()));  // first 200 warm up
  }
  return median(samples);
}

void trace_rig(Rig& rig, double budget_s, SpanLog& spans, Outcome& out) {
  nn::InferenceSession& s = *rig.session;
  nn::Network& net = s.network();
  const std::size_t convs = net.conv_layers().size();
  std::vector<ConfigTrace> traces(rig.configs.size());
  for (ConfigTrace& t : traces) {
    t.conv_ms.resize(convs);
    t.conv_t1_ms.resize(convs);
    t.replay_ms.resize(convs);
  }
  TraceTotals totals;
  std::vector<double> conv_ms(convs);
  bool replay_matches = true;
  const auto start = Clock::now();
  do {
    for (std::size_t c = 0; c < rig.configs.size(); ++c) {
      ConfigTrace& t = traces[c];
      s.set_engine(rig.configs[c]);
      s.set_threads(rig.wide);
      for (std::size_t b = 0; b < rig.batches.size(); ++b) {
        double float_ms = 0.0, pass_ms = 0.0;
        const nn::Tensor y = traced_pass(net, rig.batches[b], spans, totals, &conv_ms, &float_ms,
                                         &pass_ms, "pass");
        ++out.attempted;
        if (!same_bits(y, rig.ref[c][b])) ++out.failed;
        for (std::size_t i = 0; i < convs; ++i) t.conv_ms[i].push_back(conv_ms[i]);
        t.float_ms.push_back(float_ms);
        t.pass_ms.push_back(pass_ms);
        if (b == 0) t.stats = s.last_forward_stats();
      }
      if (t.replays.empty()) {
        // Untimed pass that hands each conv layer's input and output of the
        // first batch to its replay, which must reproduce that output.
        (void)forward_layers(net, rig.batches.front(),
                             [&](std::size_t i, const nn::Tensor& in, const nn::Tensor& y) {
                               const auto* conv = dynamic_cast<const nn::Conv2D*>(&net.layer(i));
                               if (!conv) return;
                               t.replays.emplace_back(*conv, in, rig.configs[c].n_bits);
                               t.replays.back().run(*s.engine(), &y, &replay_matches);
                             });
      }
      s.set_threads(1);
      for (std::size_t b = 0; b < rig.batches.size(); ++b) {
        double pass_ms = 0.0;
        const nn::Tensor y = traced_pass(net, rig.batches[b], spans, totals, &conv_ms, nullptr,
                                         &pass_ms, "pass.t1");
        ++out.attempted;
        if (!same_bits(y, rig.ref[c][b])) ++out.failed;
        for (std::size_t i = 0; i < convs; ++i) t.conv_t1_ms[i].push_back(conv_ms[i]);
        t.pass_t1_ms.push_back(pass_ms);
      }
      s.set_threads(rig.threads);
      for (std::size_t i = 0; i < convs; ++i) {
        const auto r0 = Clock::now();
        t.replay_ms[i].push_back(t.replays[i].run(*s.engine(), nullptr, nullptr));
        spans.add({.name = "conv" + std::to_string(i) + ".mac_rows_replay", .start = r0,
                   .end = Clock::now(), .group = ++totals.group});
      }
    }
  } while (seconds_between(start, Clock::now()) < budget_s);

  if (!replay_matches) out.errors.push_back("mac_rows replay does not reproduce the conv output");
  const double covered = totals.pass_ms > 0 ? totals.layer_ms / totals.pass_ms : 0.0;
  if (covered < 1.0 - kReconcileTolerance || covered > 1.0 + 1e-9)
    out.errors.push_back("layer spans cover " + fmt_double(covered * 100) +
                         "% of the traced pass time");
  out.correct = out.correct && out.errors.empty();

  Metrics& m = out.metrics;
  const double nconf = static_cast<double>(traces.size());
  double replay_total_ms = 0.0, dense_products = 0.0, products = 0.0, issued = 0.0;
  double sats = 0.0, efficiency = 0.0, float_ms = 0.0;
  std::vector<double> conv_ms_avg(convs), t1_avg(convs), replay_avg(convs);
  for (const ConfigTrace& t : traces) {
    for (std::size_t i = 0; i < convs; ++i) {
      conv_ms_avg[i] += median(t.conv_ms[i]) / nconf;
      t1_avg[i] += median(t.conv_t1_ms[i]) / nconf;
      replay_avg[i] += median(t.replay_ms[i]) / nconf;
      replay_total_ms += median(t.replay_ms[i]);
      dense_products += static_cast<double>(t.replays[i].products);
    }
    float_ms += median(t.float_ms) / nconf;
    products += static_cast<double>(t.stats.products);
    issued += static_cast<double>(t.stats.products - t.stats.skipped_products);
    sats += static_cast<double>(t.stats.saturations);
    efficiency += median(t.pass_t1_ms) / (rig.wide * median(t.pass_ms)) / nconf;
  }
  for (std::size_t i = 0; i < convs; ++i) {
    const std::string p = "nn.conv" + std::to_string(i);
    m.set(p + ".ms", conv_ms_avg[i], "ms");
    m.set(p + ".t1_ms", t1_avg[i], "ms");
    m.set(p + ".mac_rows_ms", replay_avg[i], "ms");
    m.set(p + ".pack_ms", t1_avg[i] - replay_avg[i], "ms");
  }
  m.set("nn.float_layers.ms", float_ms, "ms");
  m.set("nn.mac_rows.ns_per_product", replay_total_ms * 1e6 / dense_products, "ns");
  m.set("nn.engine_build_ms", rig.engine_build_ms, "ms");
  m.set("nn.products_per_img", products / nconf / kBatch, "count");
  m.set("nn.saturations_per_img", sats / nconf / kBatch, "count");
  m.set("nn.issued_share", issued / products, "ratio");
  m.set("common.parallel_efficiency", efficiency, "ratio");
  m.set("common.parallel_for.dispatch_us", dispatch_us(rig.wide), "us");
  double round_ms = 0.0;
  for (std::size_t c = 0; c < traces.size(); ++c) {
    round_ms += quantile(traces[c].pass_t1_ms, kFastQuantile) * static_cast<double>(rig.batches.size());
    m.set("nn.engine." + config_name(rig.configs[c]) + ".ms", median(traces[c].pass_t1_ms), "ms");
  }
  // The traced counterpart of imgs_per_s, read the same way from the
  // one-thread passes; its gap to the untraced figure is the tracing overhead.
  std::cerr << "info: traced precision-sweep imgs_per_s "
            << static_cast<double>(traces.size() * rig.batches.size()) * kBatch * 1e3 / round_ms
            << ", layer spans cover " << covered * 100 << "% of the pass spans\n";
}

/// Untraced timed loop: whole rounds (every configuration forwards every
/// batch) until `seconds` have passed. pass_us[c * batches + b] collects the
/// times of configuration c's pass over batch b.
void timed_rounds(Rig& rig, double seconds, Outcome& out,
                  std::vector<std::vector<double>>& pass_us) {
  nn::InferenceSession& s = *rig.session;
  pass_us.resize(rig.configs.size() * rig.batches.size());
  const auto start = Clock::now();
  do {
    for (std::size_t c = 0; c < rig.configs.size(); ++c) {
      s.set_engine(rig.configs[c]);
      for (std::size_t b = 0; b < rig.batches.size(); ++b) {
        const auto t0 = Clock::now();
        const nn::Tensor y = s.forward(rig.batches[b]);
        pass_us[c * rig.batches.size() + b].push_back(us_between(t0, Clock::now()));
        ++out.attempted;
        if (!same_bits(y, rig.ref[c][b])) ++out.failed;
      }
    }
  } while (seconds_between(start, Clock::now()) < seconds);
}

}  // namespace

void trace_precision_sweep(std::uint64_t seed, double budget_s, SpanLog& spans, Outcome& out) {
  Outcome own;
  Rig rig = make_rig(seed);
  describe_rig(rig, own);
  trace_rig(rig, budget_s, spans, own);
  verify_rig(rig, seed, own);
  merge_outcome(out, std::move(own));
}

Outcome run_precision_sweep(const RunArgs& args, SpanLog& spans) {
  Outcome out;
  if (args.trace) {
    trace_precision_sweep(args.seed, args.seconds * 0.85, spans, out);
    trace_serve_closed(args.seed, args.seconds * 0.15, spans, out);
    return out;
  }
  std::vector<double> setups;
  std::vector<std::vector<double>> pass_us;
  Rig rig;
  std::vector<std::vector<nn::Tensor>> first_ref;
  for (int k = 0; k < kSetups; ++k) {
    rig = Rig{};  // release the previous rig before timing the next
    const auto t0 = Clock::now();
    rig = make_rig(args.seed);
    setups.push_back(seconds_between(t0, Clock::now()));
    if (k == 0) {
      describe_rig(rig, out);
      first_ref = rig.ref;
    }
    for (std::size_t c = 0; c < rig.ref.size(); ++c)
      for (std::size_t b = 0; b < rig.ref[c].size(); ++b)
        if (!same_bits(rig.ref[c][b], first_ref[c][b]))
          out.errors.push_back("set-up " + std::to_string(k) + " computes other logits than set-up 0");
    timed_rounds(rig, args.seconds / kSetups, out, pass_us);
  }
  // Each pass of the round is read at the fast end of its samples; the round
  // time is their sum (README, "Steadiness").
  std::vector<double> fast_us;
  for (const std::vector<double>& samples : pass_us)
    fast_us.push_back(quantile(samples, kFastQuantile));
  double round_us = 0.0;
  for (const double us : fast_us) round_us += us;
  const double pass_rate = static_cast<double>(fast_us.size()) * 1e6 / round_us;
  out.metrics.set("imgs_per_s", pass_rate * kBatch, "imgs/s");
  out.metrics.set("req_per_s", pass_rate, "req/s");
  out.metrics.set("latency_p50_us", quantile(fast_us, 0.50), "us");
  out.metrics.set("latency_p90_us", quantile(fast_us, 0.90), "us");
  out.metrics.set("setup_s", median(setups), "s");
  out.metrics.set("peak_rss_mib", peak_rss_mib(), "MiB");
  verify_rig(rig, args.seed, out);
  return out;
}

}  // namespace perfbench

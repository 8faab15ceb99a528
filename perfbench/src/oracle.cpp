#include "oracle.hpp"

#include <cmath>
#include <cstdlib>
#include <unordered_map>

#include "common/rng.hpp"
#include "nn/inference_session.hpp"
#include "nn/network.hpp"
#include "sc/conventional.hpp"

namespace perfbench {

namespace sc = scnn::sc;

std::int64_t proposed_product(int n, std::int32_t qx, std::int32_t qw) {
  const std::int64_t k = qw < 0 ? -static_cast<std::int64_t>(qw) : qw;
  const auto u = static_cast<std::uint32_t>(qx + (1 << (n - 1)));
  std::int64_t p = 0;
  for (int i = 1; i <= n; ++i)
    if ((u >> (n - i)) & 1u) p += (k + (std::int64_t{1} << (i - 1))) >> i;  // round half up
  const std::int64_t updown = 2 * p - k;
  return qw < 0 ? -updown : updown;
}

std::int64_t fixed_product(int n, std::int32_t qx, std::int32_t qw) {
  const std::int64_t prod = static_cast<std::int64_t>(qx) * qw;
  const std::int64_t mag = (prod < 0 ? -prod : prod) >> (n - 1);
  return prod < 0 ? -mag : mag;
}

class ConvOracle::LfsrStreamModel {
 public:
  explicit LfsrStreamModel(int n) : n_(n), x_("lfsr", n, 0), w_("lfsr", n, 1) {}

  std::int64_t product(std::int32_t qx, std::int32_t qw) {
    const std::int32_t half = 1 << (n_ - 1);
    const auto key = (static_cast<std::uint32_t>(qx + half) << 16) |
                     static_cast<std::uint32_t>(qw + half);
    if (const auto it = memo_.find(key); it != memo_.end()) return it->second;
    const sc::Bitstream& sx = x_.signed_stream(qx);
    const sc::Bitstream& sw = w_.signed_stream(qw);
    const std::size_t len = std::size_t{1} << n_;
    std::int64_t updown = 0;  // the bipolar up/down counter, units 2^-N
    for (std::size_t t = 0; t < len; ++t) updown += sx.get(t) == sw.get(t) ? 1 : -1;
    const std::int64_t p = updown >> 1;  // drop one bit: units 2^-(N-1)
    memo_.emplace(key, p);
    return p;
  }

 private:
  int n_;
  sc::StreamBank x_, w_;
  std::unordered_map<std::uint32_t, std::int64_t> memo_;
};

std::int32_t quantize_code(double v, int n) {
  const double scale = static_cast<double>(std::int64_t{1} << (n - 1));
  const std::int64_t hi = (std::int64_t{1} << (n - 1)) - 1, lo = -(std::int64_t{1} << (n - 1));
  std::int64_t q = std::llround(v * scale);
  if (q > hi) q = hi;
  if (q < lo) q = lo;
  return static_cast<std::int32_t>(q);
}

std::int64_t saturating_sum(const std::vector<std::int64_t>& products, int n, int a,
                            std::uint64_t* saturations) {
  const std::int64_t hi = (std::int64_t{1} << (n + a - 1)) - 1, lo = -(hi + 1);
  std::int64_t acc = 0;
  for (const std::int64_t p : products) {
    acc += p;
    if (acc > hi || acc < lo) {
      acc = acc > hi ? hi : lo;
      if (saturations) ++*saturations;
    }
  }
  return acc;
}

ConvOracle::ConvOracle(nn::EngineKind kind, int n_bits, int accum_bits)
    : kind_(kind), n_(n_bits), a_(accum_bits) {
  if (kind == nn::EngineKind::kScLfsr) lfsr_ = std::make_unique<LfsrStreamModel>(n_bits);
}

ConvOracle::~ConvOracle() = default;

std::int64_t ConvOracle::product(std::int32_t qx, std::int32_t qw) const {
  switch (kind_) {
    case nn::EngineKind::kFixed: return fixed_product(n_, qx, qw);
    case nn::EngineKind::kScLfsr: return lfsr_->product(qx, qw);
    case nn::EngineKind::kProposed: break;
  }
  return proposed_product(n_, qx, qw);
}

float ConvOracle::output_at(const nn::Conv2D& conv, const nn::Tensor& x, int img, int m,
                            int r, int c) const {
  const int K = conv.kernel(), S = conv.stride(), P = conv.pad();
  const float ws = conv.weight_scale(), as = conv.activation_scale();
  std::vector<std::int64_t> products;
  products.reserve(static_cast<std::size_t>(conv.in_channels()) * K * K);
  // Patch order z, i, j; padding contributes zero activation codes, which
  // are real products (sc-lfsr maps a zero code to a nonzero product).
  for (int z = 0; z < conv.in_channels(); ++z)
    for (int i = 0; i < K; ++i)
      for (int j = 0; j < K; ++j) {
        const int yy = S * r + i - P, xx = S * c + j - P;
        const bool inside = yy >= 0 && yy < x.h() && xx >= 0 && xx < x.w();
        const float xv = inside ? x.at(img, z, yy, xx) / as : 0.0f;
        const float wv = conv.weight().at(m, z, i, j) / ws;
        products.push_back(product(quantize_code(xv, n_), quantize_code(wv, n_)));
      }
  const std::int64_t acc = saturating_sum(products, n_, a_);
  const float out_scale = ws * as / static_cast<float>(std::int64_t{1} << (n_ - 1));
  return static_cast<float>(acc) * out_scale + conv.bias().at(m, 0, 0, 0);
}

std::string ConvOracle::check(const nn::Conv2D& conv, const nn::Tensor& x,
                              const nn::Tensor& y, std::uint64_t seed, int samples) const {
  const std::size_t total = y.size();
  const bool all = static_cast<std::size_t>(samples) >= total;
  common::SplitMix64 rng(seed);
  const std::size_t count = all ? total : static_cast<std::size_t>(samples);
  for (std::size_t s = 0; s < count; ++s) {
    const std::size_t idx = all ? s : static_cast<std::size_t>(rng.next_below(total));
    const int c = static_cast<int>(idx % static_cast<std::size_t>(y.w()));
    const int r = static_cast<int>(idx / static_cast<std::size_t>(y.w()) % static_cast<std::size_t>(y.h()));
    const int m = static_cast<int>(idx / (static_cast<std::size_t>(y.w()) * y.h()) %
                                   static_cast<std::size_t>(y.c()));
    const int img = static_cast<int>(idx / y.features());
    const float want = output_at(conv, x, img, m, r, c);
    const float got = y.at(img, m, r, c);
    if (want != got)
      return "conv output (" + std::to_string(img) + "," + std::to_string(m) + "," +
             std::to_string(r) + "," + std::to_string(c) + ") is " + std::to_string(got) +
             ", oracle " + std::to_string(want);
  }
  return {};
}

std::vector<std::string> self_test() {
  std::vector<std::string> fails;
  // Table 1 of the paper (N = 4): qx in {0, 7, -8} against qw = -8 and 7.
  struct Row {
    std::int32_t qx, qw;
    std::int64_t product;
  };
  constexpr Row kTable1[] = {{0, -8, 0}, {7, -8, -8}, {-8, -8, 8},
                             {0, 7, 1},  {7, 7, 7},   {-8, 7, -7}};
  for (const Row& row : kTable1)
    if (proposed_product(4, row.qx, row.qw) != row.product)
      fails.push_back("Table 1: proposed(" + std::to_string(row.qx) + "," +
                      std::to_string(row.qw) + ") != " + std::to_string(row.product));
  // The truncating product on the same operands: 49/8 -> 6, -56/8 -> -7.
  if (fixed_product(4, 7, 7) != 6 || fixed_product(4, 7, -8) != -7 ||
      fixed_product(4, -8, 7) != -7 || fixed_product(4, -8, -8) != 8)
    fails.push_back("fixed-point oracle truncates wrongly on the Table 1 operands");

  // Sec. 2.3: within N/2 LSB of the exact product, every code pair, N = 4..8.
  for (int n = 4; n <= 8; ++n) {
    const std::int32_t half = 1 << (n - 1);
    for (std::int32_t qx = -half; qx < half; ++qx)
      for (std::int32_t qw = -half; qw < half; ++qw) {
        const double exact = static_cast<double>(qx) * qw / half;
        if (std::abs(static_cast<double>(proposed_product(n, qx, qw)) - exact) > n / 2.0) {
          fails.push_back("Sec. 2.3 bound broken at N=" + std::to_string(n) + " qx=" +
                          std::to_string(qx) + " qw=" + std::to_string(qw));
          qx = half;  // one report per N
          break;
        }
        if (std::abs(static_cast<double>(fixed_product(n, qx, qw)) - exact) >= 1.0) {
          fails.push_back("fixed-point oracle off by a whole LSB at N=" + std::to_string(n));
          qx = half;
          break;
        }
      }
  }

  // (N+A)-bit saturation after every add: N = 4, A = 2 rails at [-32, 31].
  std::uint64_t sats = 0;
  if (saturating_sum({20, 20, -10}, 4, 2, &sats) != 21 || sats != 1)
    fails.push_back("saturating accumulator does not clamp after every add");
  sats = 0;
  if (saturating_sum({-30, -30, 5, -40}, 4, 2, &sats) != -32 || sats != 2)
    fails.push_back("saturating accumulator does not clamp the lower rail");

  // The output check accepts a real conv output and rejects it perturbed by
  // one accumulator LSB.
  nn::Network net;
  auto& conv = net.add<nn::Conv2D>(2, 3, 3, 1, 1);
  conv.init_weights(77);
  nn::Tensor x(2, 2, 6, 6);
  common::SplitMix64 rng(91);
  for (float& v : x.data()) v = static_cast<float>(rng.next_double());
  nn::InferenceSession session(std::move(net), 1);
  session.calibrate(x);
  for (const auto kind : {nn::EngineKind::kFixed, nn::EngineKind::kScLfsr,
                          nn::EngineKind::kProposed}) {
    session.set_engine({.kind = kind, .n_bits = 6});
    const nn::Tensor y = session.forward(x);
    auto& c = *session.network().conv_layers().front();
    const ConvOracle oracle(kind, 6, 2);
    if (const std::string err = oracle.check(c, x, y, 1, 1 << 20); !err.empty()) {
      fails.push_back("conv check rejects a correct " + nn::to_string(kind) + " output: " + err);
      continue;
    }
    nn::Tensor bad = y;
    const float lsb = c.weight_scale() * c.activation_scale() / 32.0f;
    bad.at(1, 2, 3, 4) += lsb;
    if (bad.at(1, 2, 3, 4) == y.at(1, 2, 3, 4) ||
        oracle.check(c, x, bad, 1, 1 << 20).empty())
      fails.push_back("conv check accepts a " + nn::to_string(kind) +
                      " output perturbed by one LSB");
  }
  return fails;
}

}  // namespace perfbench

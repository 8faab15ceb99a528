// Reference arithmetic written in the benchmark itself, so the output checks
// do not rest on the product tables or kernels they judge:
//  - the paper's closed-form proposed product (Sec. 2.2-2.4);
//  - the truncating fixed-point product;
//  - conventional LFSR SC, walked bit by bit over the stream model of src/sc:
//    the XNOR of the activation (variant 0) and weight (variant 1) LFSR
//    streams counted over the full 2^N cycles, then truncated from 2^-N to
//    2^-(N-1) units;
//  - the (N+A)-bit accumulator that saturates after every add.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/mac_engine.hpp"
#include "nn/tensor.hpp"
#include "util.hpp"

namespace perfbench {

/// Proposed SC product of signed N-bit codes, in units of 2^-(N-1):
/// sign(qw) * (2 * sum_{i=1..N} round(k / 2^i) * b_i(u) - k) with k = |qw|,
/// u = qx + 2^(N-1) (sign bit flipped, Sec. 2.4) and b_i(u) bit N-i of u.
[[nodiscard]] std::int64_t proposed_product(int n, std::int32_t qx, std::int32_t qw);

/// Truncating fixed-point product qx * qw / 2^(N-1), rounded toward zero.
[[nodiscard]] std::int64_t fixed_product(int n, std::int32_t qx, std::int32_t qw);

/// Signed code of a real value: round-half-away(v * 2^(N-1)), saturated.
[[nodiscard]] std::int32_t quantize_code(double v, int n);

/// Saturating (N+A)-bit accumulation of a product sequence, clamped after
/// every add; `saturations` counts clamp events.
[[nodiscard]] std::int64_t saturating_sum(const std::vector<std::int64_t>& products, int n,
                                          int a, std::uint64_t* saturations = nullptr);

/// Checks a quantized Conv2D forward against the oracles: for `samples`
/// seeded output positions (every position when samples >= the output size)
/// the layer output must equal, bit for bit, the float epilogue applied to
/// the saturating oracle sum of the patch's products.
class ConvOracle {
 public:
  ConvOracle(nn::EngineKind kind, int n_bits, int accum_bits);
  ~ConvOracle();
  ConvOracle(const ConvOracle&) = delete;
  ConvOracle& operator=(const ConvOracle&) = delete;

  /// Returns "" when every sampled output matches, else a description of
  /// the first mismatch.
  [[nodiscard]] std::string check(const nn::Conv2D& conv, const nn::Tensor& input,
                                  const nn::Tensor& output, std::uint64_t seed,
                                  int samples) const;

 private:
  class LfsrStreamModel;
  [[nodiscard]] float output_at(const nn::Conv2D& conv, const nn::Tensor& input, int img,
                                int m, int r, int c) const;
  [[nodiscard]] std::int64_t product(std::int32_t qx, std::int32_t qw) const;

  nn::EngineKind kind_;
  int n_, a_;
  std::unique_ptr<LfsrStreamModel> lfsr_;
};

/// The self-test run before any workload: Table 1, the Sec. 2.3 bound for
/// N = 4..8 over every code pair, the saturating accumulator, and that the
/// conv output check rejects an output perturbed by one LSB. Returns the
/// failures (empty = pass).
[[nodiscard]] std::vector<std::string> self_test();

}  // namespace perfbench

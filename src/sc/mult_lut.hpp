// Product lookup tables for fast CNN-scale simulation.
//
// Every multiplier in this project (fixed-point, conventional SC, proposed
// SC) is a *deterministic* function of the two N-bit input codes once its
// generator seeds/phases are fixed. A 2^N x 2^N table of products therefore
// simulates the hardware bit-exactly at one load per MAC, which is what makes
// the Fig. 6 CNN accuracy sweeps tractable in software.
//
// Products are stored in "accumulator LSB" units of 2^-(N-1) — the scale of
// the paper's up/down counter — so all engines accumulate in the same domain.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sc/conventional.hpp"

namespace scnn::sc {

class ProductLut {
 public:
  /// Overread/underread guard band around the 2^(2N) entries. The SIMD MAC
  /// backends fetch int16 entries with 32-bit gathers, so a gather aimed at
  /// the addressed entry touches one adjacent entry too:
  ///  - kBackPadEntries (2 int16 = one 32-bit gather unit): an AVX2-style
  ///    gather at byte offset 2*i reads entry i and i+1, so the top-corner
  ///    entry needs table_[size] and the 4-byte read needs table_[size+1].
  ///  - kFrontPadEntries: an AVX-512-style "high half" gather at byte offset
  ///    2*i - 2 reads entry i-1 and i (the target lands in the high 16 bits,
  ///    one arithmetic shift extracts it, and the read never extends past
  ///    the target entry — no back pad needed). The bottom-corner entry
  ///    (qw = qx = -2^(N-1)) reads entry -1, which this front pad absorbs.
  /// The kernels static_assert against these constants next to their gather
  /// code, and the constructor runtime-checks the allocation against them.
  static constexpr std::size_t kFrontPadEntries = 1;
  static constexpr std::size_t kBackPadEntries = 2;

  /// Build from an arbitrary product function of signed codes
  /// (qw, qx) -> product in units of 2^-(N-1).
  ProductLut(int n_bits, std::string name,
             const std::function<std::int32_t(std::int32_t, std::int32_t)>& product);

  /// Product for signed codes qw, qx in [-2^(N-1), 2^(N-1)-1].
  [[nodiscard]] std::int32_t at(std::int32_t qw, std::int32_t qx) const {
    const std::int32_t half = 1 << (n_ - 1);
    return table_[kFrontPadEntries +
                  (static_cast<std::size_t>(qw + half) << n_) +
                  static_cast<std::size_t>(qx + half)];
  }

  /// Base pointer of qw's table row, biased so row(qw)[qx] == at(qw, qx) for
  /// signed qx. Hoisting this out of a MAC inner loop removes the per-product
  /// row-index arithmetic and keeps one 2^N-entry row hot across a whole
  /// output tile (the mac_rows() kernel).
  [[nodiscard]] const std::int16_t* row(std::int32_t qw) const {
    const std::int32_t half = 1 << (n_ - 1);
    return table_.data() + kFrontPadEntries +
           (static_cast<std::size_t>(qw + half) << n_) + half;
  }

  [[nodiscard]] int bits() const { return n_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Max absolute deviation from the exact (double-precision) product over
  /// all code pairs, in accumulator LSBs. Used by tests and EXPERIMENTS.md.
  [[nodiscard]] double max_abs_error_lsb() const;

 private:
  int n_;
  std::string name_;
  // Layout: [kFrontPadEntries zeros][2^(2N) entries][kBackPadEntries zeros]
  // so the SIMD backends' 32-bit gathers of int16 entries never read outside
  // the allocation (see the pad-constant comment above).
  std::vector<std::int16_t> table_;
};

/// Fixed-point binary multiplier: full product truncated toward zero
/// (sign-magnitude, not an arithmetic shift) to the accumulator scale before
/// accumulation — the paper's "multiplication result is truncated before
/// accumulation".
ProductLut make_fixed_point_lut(int n_bits);

/// Conventional bipolar SC multiplier over full 2^N-cycle streams from two
/// banks (normally two differently-seeded LFSR banks). The up/down counter
/// result (units 2^-N) is truncated by one bit into accumulator units.
ProductLut make_conventional_sc_lut(int n_bits, const StreamBank& bank_x,
                                    const StreamBank& bank_w);

/// Convenience: conventional LFSR-based SC with default seeds.
ProductLut make_lfsr_sc_lut(int n_bits);

}  // namespace scnn::sc

#include "nn/mac_engine.hpp"

#include <cassert>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "common/fixed_point.hpp"
#include "core/scmac.hpp"
#include "nn/popcount_engine.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"

namespace scnn::nn {

namespace {

/// Bin each weight code's enable count k = |qw| into the stats histogram,
/// `times` products per code (one weight row drives `times` output lanes in
/// mac_rows). O(d) per call — amortized over the tile it accounts for.
void account_enable_cycles(std::span<const std::int32_t> w, std::uint64_t times,
                           obs::Pow2Hist& k_hist) {
  for (const std::int32_t q : w)
    k_hist.record(static_cast<std::uint64_t>(std::abs(q)), times);
}

}  // namespace

std::string to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kFixed: return "fixed";
    case EngineKind::kScLfsr: return "sc-lfsr";
    case EngineKind::kProposed: return "proposed";
  }
  throw std::invalid_argument("to_string: invalid EngineKind");
}

EngineKind engine_kind_from_string(std::string_view s) {
  if (s == "fixed") return EngineKind::kFixed;
  if (s == "sc-lfsr") return EngineKind::kScLfsr;
  if (s == "proposed") return EngineKind::kProposed;
  throw std::invalid_argument("unknown engine kind '" + std::string(s) +
                              "' (expected fixed, sc-lfsr, or proposed)");
}

void EngineConfig::validate() const {
  auto fail = [](const std::string& msg) { throw std::invalid_argument("EngineConfig: " + msg); };
  if (kind != EngineKind::kFixed && kind != EngineKind::kScLfsr &&
      kind != EngineKind::kProposed)
    fail("invalid kind enum value " + std::to_string(static_cast<int>(kind)));
  if (backend != MacBackend::kAuto && backend != MacBackend::kScalar &&
      backend != MacBackend::kSimd && backend != MacBackend::kPopcount)
    fail("invalid backend enum value " + std::to_string(static_cast<int>(backend)));
  if (backend == MacBackend::kPopcount && kind != EngineKind::kProposed)
    fail("backend = popcount simulates the proposed multiplier's bit-parallel "
         "ones-counter datapath, which only exists for kind = proposed (got "
         "kind = " + to_string(kind) + ")");
  if (sparsity != Sparsity::kDense && sparsity != Sparsity::kZeroSkip &&
      sparsity != Sparsity::kAuto)
    fail("invalid sparsity enum value " + std::to_string(static_cast<int>(sparsity)));
  if (n_bits < kMinBits || n_bits > kMaxBits)
    fail("n_bits = " + std::to_string(n_bits) + " out of range [" +
         std::to_string(kMinBits) + ", " + std::to_string(kMaxBits) + "]");
  if (accum_bits < 0 || accum_bits > kMaxAccumBits)
    fail("accum_bits = " + std::to_string(accum_bits) + " out of range [0, " +
         std::to_string(kMaxAccumBits) + "]");
  if (bit_parallel < 1 || bit_parallel > kMaxBitParallel)
    fail("bit_parallel = " + std::to_string(bit_parallel) + " out of range [1, " +
         std::to_string(kMaxBitParallel) + "]");
  if (threads < 0 || threads > kMaxThreads)
    fail("threads = " + std::to_string(threads) + " out of range [0, " +
         std::to_string(kMaxThreads) + "] (0 = auto)");
  if (im2col_tile < 0 || im2col_tile > kMaxIm2colTile)
    fail("im2col_tile = " + std::to_string(im2col_tile) + " out of range [0, " +
         std::to_string(kMaxIm2colTile) + "] (0 = auto)");
  if (backend == MacBackend::kPopcount &&
      !popcount_bit_parallel_ok(n_bits, bit_parallel))
    fail("backend = popcount needs bit_parallel to be a power of two in "
         "[1, min(64, 2^(n_bits-1))], got bit_parallel = " +
         std::to_string(bit_parallel) + " at n_bits = " + std::to_string(n_bits));
}

std::string EngineConfig::label() const {
  std::string l = to_string(kind) + "/N=" + std::to_string(n_bits);
  // Only a non-default backend/sparsity changes which kernel path runs, so
  // only those earn a label segment (sweep labels stay stable for existing
  // configs).
  if (backend != MacBackend::kAuto) l += "/" + to_string(backend);
  if (sparsity != Sparsity::kAuto) l += "/" + to_string(sparsity);
  return l;
}

int EngineConfig::resolved_threads() const {
  if (threads > 0) return threads;
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

std::string EngineConfig::to_json() const {
  return "{\"kind\":\"" + to_string(kind) + "\",\"backend\":\"" + to_string(backend) +
         "\",\"sparsity\":\"" + to_string(sparsity) +
         "\",\"n_bits\":" + std::to_string(n_bits) +
         ",\"accum_bits\":" + std::to_string(accum_bits) +
         ",\"bit_parallel\":" + std::to_string(bit_parallel) +
         ",\"threads\":" + std::to_string(threads) +
         ",\"im2col_tile\":" + std::to_string(im2col_tile) +
         ",\"instrument\":" + (instrument ? "true" : "false") + "}";
}

EngineConfig EngineConfig::from_json(std::string_view json) {
  obs::json::Reader in(json, "EngineConfig::from_json");
  EngineConfig cfg = from_json(in);
  in.finish();
  return cfg;
}

EngineConfig EngineConfig::from_json(obs::json::Reader& in) {
  EngineConfig cfg;
  in.object([&](const std::string& key) {
    if (key == "kind") cfg.kind = in.read_as(engine_kind_from_string);
    else if (key == "backend") cfg.backend = in.read_as(mac_backend_from_string);
    else if (key == "sparsity") cfg.sparsity = in.read_as(sparsity_from_string);
    else if (key == "n_bits") in.read(cfg.n_bits);
    else if (key == "accum_bits") in.read(cfg.accum_bits);
    else if (key == "bit_parallel") in.read(cfg.bit_parallel);
    else if (key == "threads") in.read(cfg.threads);
    else if (key == "im2col_tile") in.read(cfg.im2col_tile);
    else if (key == "instrument") in.read(cfg.instrument);
    else in.unknown_key();
  });
  return cfg;
}

bool lut_annihilates_zero(const sc::ProductLut& lut) {
  const std::int32_t half = 1 << (lut.bits() - 1);
  for (std::int32_t qx = -half; qx < half; ++qx)
    if (lut.at(0, qx) != 0) return false;
  return true;
}

bool resolve_zero_skip(Sparsity sparsity, bool annihilates,
                       const std::string& table_name) {
  if (sparsity == Sparsity::kAuto) {
    // Global override hook for CI and A/B runs, mirroring SCNN_BACKEND:
    // steers every kAuto engine in the process, never an explicit request.
    // The env value only steers which way auto leans — unlike an explicit
    // kZeroSkip request it cannot make an illegal schedule legal, so
    // SCNN_SPARSITY=zero_skip on a non-annihilating table (sc-lfsr) stays
    // dense instead of throwing. That is what lets a CI leg pin the whole
    // suite to zero-skip without breaking conventional-SC tests.
    if (const char* env = std::getenv("SCNN_SPARSITY"); env && *env) {
      const Sparsity leaning = sparsity_from_string(env);  // throws on typos
      if (leaning == Sparsity::kDense) return false;
      return annihilates;
    }
    return annihilates;
  }
  switch (sparsity) {
    case Sparsity::kDense:
      return false;
    case Sparsity::kZeroSkip:
      if (!annihilates)
        throw std::invalid_argument(
            "sparsity = zero-skip, but the " + table_name +
            " product table does not annihilate zero weight codes "
            "(product(0, qx) != 0 for some qx), so skipping k = 0 products "
            "would change results — use sparsity = dense or auto");
      return true;
    case Sparsity::kAuto:
      return annihilates;
  }
  throw std::invalid_argument("resolve_zero_skip: invalid Sparsity");
}

bool resolve_zero_skip(Sparsity sparsity, const sc::ProductLut& lut) {
  return resolve_zero_skip(sparsity, lut_annihilates_zero(lut), lut.name());
}

LutEngine::LutEngine(sc::ProductLut lut, int accum_bits, MacBackend backend,
                     Sparsity sparsity)
    : MacEngine(lut.bits(), accum_bits),
      lut_(std::move(lut)),
      kernel_(&backends::select_kernel(backend)),
      zero_skip_(resolve_zero_skip(sparsity, lut_)) {}

std::int64_t LutEngine::mac_impl_(std::span<const std::int32_t> w,
                                  std::span<const std::int32_t> x,
                                  MacStats* stats) const {
  assert(w.size() == x.size());
  const int bits = n_ + a_;
  const std::int64_t lo = common::int_min_of(bits), hi = common::int_max_of(bits);
  std::int64_t acc = 0;
  std::uint64_t sat = 0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    acc += lut_.at(w[i], x[i]);
    if (acc < lo) {
      acc = lo;
      ++sat;
    } else if (acc > hi) {
      acc = hi;
      ++sat;
    }
  }
  if (stats) {
    ++stats->macs;
    stats->products += w.size();
    stats->saturations += sat;
    if (stats->detail) account_enable_cycles(w, 1, stats->k_hist);
  }
  return acc;
}

std::int64_t LutEngine::mac(std::span<const std::int32_t> w,
                            std::span<const std::int32_t> x) const {
  return mac_impl_(w, x, nullptr);
}

std::int64_t LutEngine::mac(std::span<const std::int32_t> w,
                            std::span<const std::int32_t> x, MacStats& stats) const {
  return mac_impl_(w, x, &stats);
}

void LutEngine::mac_rows(const WeightCodeView& w,
                         std::span<const std::int32_t> patches,
                         std::span<std::int64_t> out, MacStats& stats) const {
  const std::size_t d = w.size();
  const std::size_t tile = out.size();
  assert(patches.size() == d * tile);
  const int bits = n_ + a_;
  const std::int64_t lo = common::int_min_of(bits), hi = common::int_max_of(bits);
  // The narrow (int32-accumulator) kernels are exact while |rail| + |product|
  // fits: rails need `bits` <= 31 and a product adds at most 2^15 before the
  // clamp. Wider configurations fall back to the shared int64 path.
  std::uint64_t sat;
  if (zero_skip_ && w.packed() && w.nnz() < d) {
    // The sparse kernel issues only the nonzeros (in the same increasing-j
    // order), which is bit-exact because this engine's table annihilates
    // zero — enforced at construction. Rows with no zeros take the dense
    // kernel: same results, no indirection.
    sat = bits <= 30 ? kernel_->sparse_narrow(lut_, w.cols(), w.codes(), d,
                                              patches, out, lo, hi)
                     : kernel_->sparse_wide(lut_, w.cols(), w.codes(), d,
                                            patches, out, lo, hi);
    stats.skipped_products += (d - w.nnz()) * tile;
  } else {
    sat = bits <= 30 ? kernel_->narrow(lut_, w.dense(), patches, out, lo, hi)
                     : kernel_->wide(lut_, w.dense(), patches, out, lo, hi);
  }
  stats.macs += tile;
  stats.products += tile * d;
  stats.saturations += sat;
  // k accounting always walks the dense row (zeros land in bucket 0), so
  // detail-mode histograms are identical across scheduling modes.
  if (stats.detail && tile > 0) account_enable_cycles(w.dense(), tile, stats.k_hist);
}

MacEngine::Description LutEngine::describe() const {
  const std::string sparsity = zero_skip_ ? "zero-skip" : "dense";
  // n + a > 30 routes mac_rows onto Kernel::wide — report what actually
  // runs: the kernel's own int64 lanes where it has a native wide variant
  // (avx512), the shared scalar block otherwise.
  if (n_ + a_ > 30) {
    if (!backends::kernel_has_native_wide(*kernel_))
      return {.backend = "scalar", .lanes = 8, .sparsity = sparsity};
    return {.backend = kernel_->name, .lanes = kernel_->wide_lanes,
            .sparsity = sparsity};
  }
  return {.backend = kernel_->name, .lanes = kernel_->lanes, .sparsity = sparsity};
}

namespace {

sc::ProductLut make_lut_for(EngineKind kind, int n_bits) {
  switch (kind) {
    case EngineKind::kFixed: return sc::make_fixed_point_lut(n_bits);
    case EngineKind::kScLfsr: return sc::make_lfsr_sc_lut(n_bits);
    case EngineKind::kProposed: return core::make_proposed_lut(n_bits);
  }
  throw std::invalid_argument("make_lut_for: invalid EngineKind");
}

}  // namespace

std::unique_ptr<MacEngine> make_engine(const EngineConfig& cfg) {
  cfg.validate();
  if (cfg.backend == MacBackend::kPopcount)
    return std::make_unique<PopcountEngine>(cfg.n_bits, cfg.accum_bits,
                                            cfg.bit_parallel, cfg.sparsity);
  if (cfg.backend == MacBackend::kAuto && cfg.kind == EngineKind::kProposed &&
      popcount_bit_parallel_ok(cfg.n_bits, cfg.bit_parallel)) {
    // SCNN_BACKEND=popcount leans kAuto engines onto the popcount datapath
    // where that is legal (proposed arithmetic, compatible b). Like
    // SCNN_SPARSITY, the env only leans — other kinds keep auto kernel
    // dispatch instead of throwing, so a CI leg can pin the whole suite.
    if (const char* env = std::getenv("SCNN_BACKEND");
        env && std::string_view{env} == "popcount")
      return std::make_unique<PopcountEngine>(cfg.n_bits, cfg.accum_bits,
                                              cfg.bit_parallel, cfg.sparsity);
  }
  return std::make_unique<LutEngine>(make_lut_for(cfg.kind, cfg.n_bits),
                                     cfg.accum_bits, cfg.backend, cfg.sparsity);
}

MacEngine::Description resolved_backend(MacBackend backend) {
  if (backend == MacBackend::kPopcount)
    return {.backend = popcount_backend_name(),
            .lanes = popcount_backend_lanes()};
  const backends::Kernel& k = backends::select_kernel(backend);
  return {.backend = k.name, .lanes = k.lanes};
}

MacEngine::Description resolved_backend(const EngineConfig& cfg) {
  // Mirror make_engine's popcount lean: a kAuto proposed engine under
  // SCNN_BACKEND=popcount resolves to the popcount datapath, not a LUT
  // kernel — pool keys and reports must see the same answer construction
  // would give.
  if (cfg.backend == MacBackend::kAuto && cfg.kind == EngineKind::kProposed &&
      popcount_bit_parallel_ok(cfg.n_bits, cfg.bit_parallel)) {
    if (const char* env = std::getenv("SCNN_BACKEND");
        env && std::string_view{env} == "popcount")
      return {.backend = popcount_backend_name(),
              .lanes = popcount_backend_lanes()};
  }
  return resolved_backend(cfg.backend);
}

namespace {

void stamp_engine_meta_impl(obs::JsonReport& report, const EngineConfig& cfg,
                            const MacEngine::Description& resolved) {
  report.set_meta("engine", to_string(cfg.kind));
  report.set_meta("n_bits", static_cast<double>(cfg.n_bits));
  report.set_meta("accum_bits", static_cast<double>(cfg.accum_bits));
  report.set_meta("bit_parallel", static_cast<double>(cfg.bit_parallel));
  report.set_meta("threads", static_cast<double>(cfg.resolved_threads()));
  report.set_meta("backend", to_string(cfg.backend));
  report.set_meta("backend_resolved", resolved.backend);
  report.set_meta("backend_lanes", static_cast<double>(resolved.lanes));
  report.set_meta("sparsity", to_string(cfg.sparsity));
  report.set_meta("sparsity_resolved", resolved.sparsity);
  report.set_meta_json("engine_config", cfg.to_json());
}

}  // namespace

void stamp_engine_meta(obs::JsonReport& report, const EngineConfig& cfg) {
  MacEngine::Description resolved{.backend = "unavailable", .lanes = 0,
                                  .sparsity = "unavailable"};
  try {
    const std::string sparsity = resolved.sparsity;
    resolved = resolved_backend(cfg.backend);
    resolved.sparsity = sparsity;
  } catch (const std::exception&) {
    // kSimd on a machine with no SIMD kernel: stamp the fact, don't throw
    // from a reporting path.
  }
  try {
    if (cfg.n_bits >= EngineConfig::kMinBits && cfg.n_bits <= EngineConfig::kMaxBits)
      resolved.sparsity = resolve_zero_skip(cfg.sparsity,
                                            make_lut_for(cfg.kind, cfg.n_bits))
                              ? "zero-skip"
                              : "dense";
  } catch (const std::exception&) {
    // kZeroSkip on a non-annihilating table (or a bad SCNN_SPARSITY value):
    // stamp the fact, don't throw from a reporting path.
  }
  stamp_engine_meta_impl(report, cfg, resolved);
}

void stamp_engine_meta(obs::JsonReport& report, const EngineConfig& cfg,
                       const MacEngine& engine) {
  stamp_engine_meta_impl(report, cfg, engine.describe());
}

}  // namespace scnn::nn

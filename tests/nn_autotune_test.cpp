// The offline autotuner contract (`scnn_cli tune` -> tune.json -> kAuto):
// the file round-trips through its JSON form, a wrong-CPU file is rejected
// loudly at install, an installed file measurably steers kAuto resolution
// (kernel and im2col tile) without changing a single output bit, and
// explicit requests always win over the tune file.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/cpu_features.hpp"
#include "data/synthetic_digits.hpp"
#include "nn/autotune.hpp"
#include "nn/inference_session.hpp"
#include "nn/mac_backends/mac_backends.hpp"
#include "nn/mac_engine.hpp"
#include "nn/network.hpp"

namespace scnn {
namespace {

using nn::EngineConfig;
using nn::EngineKind;
using nn::MacBackend;
using nn::TuneEntry;
using nn::TuneFile;

/// RAII: whatever a test installs, the next test starts clean — and an
/// ambient SCNN_BACKEND (the forced-backend CI legs) is parked for the
/// test's duration, because these tests assert kAuto *resolution*, which
/// the env legitimately outranks.
struct TuneGuard {
  TuneGuard() {
    if (const char* env = std::getenv("SCNN_BACKEND")) {
      saved_backend = env;
      unsetenv("SCNN_BACKEND");
    }
  }
  ~TuneGuard() {
    nn::set_active_tune(std::nullopt);
    if (saved_backend) setenv("SCNN_BACKEND", saved_backend->c_str(), 1);
  }
  std::optional<std::string> saved_backend;
};

TuneFile local_tune() {
  TuneFile tf;
  tf.cpu_signature = common::cpu_features_summary();
  tf.git_sha = "testsha000000";
  return tf;
}

TEST(Autotune, JsonRoundTripsExactly) {
  TuneFile tf = local_tune();
  tf.best_backend = "avx2";
  tf.best_tile = 32;
  tf.best_threads = 4;
  tf.entries = {{"scalar", 0, 1, 123.25}, {"avx2", 32, 4, 1024.5}};
  EXPECT_EQ(TuneFile::from_json(tf.to_json()), tf);

  const TuneFile empty = local_tune();
  EXPECT_EQ(TuneFile::from_json(empty.to_json()), empty);

  EXPECT_THROW((void)TuneFile::from_json("{"), std::invalid_argument);
  EXPECT_THROW((void)TuneFile::from_json(R"({"bogus": 1})"),
               std::invalid_argument);
  EXPECT_THROW((void)TuneFile::from_json(tf.to_json() + "x"),
               std::invalid_argument);
  // 3e9 is an integer but not an int: rejected naming the key, never cast.
  try {
    (void)TuneFile::from_json(R"({"best_tile": 3e9})");
    ADD_FAILURE() << "best_tile = 3e9 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("\"best_tile\": 3e9 out of range"),
              std::string::npos)
        << e.what();
  }
}

TEST(Autotune, SaveAndLoadThroughDisk) {
  TuneFile tf = local_tune();
  tf.best_backend = "scalar";
  tf.best_tile = 16;
  const std::string path = ::testing::TempDir() + "scnn_tune_roundtrip.json";
  nn::save_tune_file(tf, path);
  EXPECT_EQ(nn::load_tune_file(path), tf);
  EXPECT_THROW((void)nn::load_tune_file(path + ".missing"), std::runtime_error);
}

TEST(Autotune, WrongCpuSignatureIsRejectedLoudly) {
  TuneGuard guard;
  TuneFile tf = local_tune();
  tf.cpu_signature = "someone-elses-machine";
  EXPECT_THROW(nn::set_active_tune(tf), std::invalid_argument);
  EXPECT_EQ(nn::active_tune(), nullptr);
}

TEST(Autotune, InstalledTuneSteersKAutoKernelButNeverExplicitRequests) {
  TuneGuard guard;
  // Steer kAuto to the *scalar* kernel — on any machine with a SIMD kernel
  // that provably differs from the default resolution.
  TuneFile tf = local_tune();
  tf.best_backend = "scalar";
  nn::set_active_tune(tf);
  ASSERT_NE(nn::active_tune(), nullptr);
  EXPECT_EQ(nn::resolved_backend(MacBackend::kAuto).backend, "scalar");

  // Explicit requests ignore the tune file.
  if (const nn::backends::Kernel* simd = nn::backends::best_simd_kernel())
    EXPECT_EQ(nn::resolved_backend(MacBackend::kSimd).backend, simd->name);

  // The SCNN_BACKEND env (forced A/B hook) outranks the tune file.
  if (nn::backends::best_simd_kernel()) {
    ASSERT_EQ(setenv("SCNN_BACKEND", "simd", 1), 0);
    EXPECT_NE(nn::resolved_backend(MacBackend::kAuto).backend, "scalar");
    ASSERT_EQ(unsetenv("SCNN_BACKEND"), 0);
  }

  // A tune file naming a kernel this machine cannot run fails loudly at
  // resolution time instead of degrading silently.
  TuneFile bad = local_tune();
  bad.best_backend = "not-a-kernel";
  nn::set_active_tune(bad);
  EXPECT_THROW((void)nn::resolved_backend(MacBackend::kAuto),
               std::invalid_argument);
}

TEST(Autotune, TuneChangesResolutionWithBitIdenticalLogits) {
  TuneGuard guard;
  const auto data = data::make_synthetic_digits({.count = 4, .seed = 21});
  nn::InferenceSession session(nn::make_mnist_net(data.images.h()),
                               /*threads=*/1);
  session.calibrate(data.images);
  const EngineConfig cfg{.kind = EngineKind::kProposed, .n_bits = 8,
                         .backend = MacBackend::kAuto};

  // Baseline: kAuto with no tune file installed.
  session.set_engine(cfg);
  const std::string default_backend = session.backend().backend;
  const nn::Tensor ref = session.forward(data.images);
  const nn::MacStats ref_stats = session.last_forward_stats();

  // Install a tune file that flips the kernel to scalar and the tile to a
  // width that provably splits this model's output rows.
  TuneFile tf = local_tune();
  tf.best_backend = "scalar";
  tf.best_tile = 3;
  nn::set_active_tune(tf);
  session.set_engine(cfg);

  EXPECT_EQ(session.backend().backend, "scalar");
  if (nn::backends::best_simd_kernel())
    EXPECT_NE(session.backend().backend, default_backend)
        << "tune file did not change kAuto resolution";
  const nn::Tensor tuned = session.forward(data.images);
  ASSERT_TRUE(ref.same_shape(tuned));
  EXPECT_EQ(std::memcmp(ref.data().data(), tuned.data().data(),
                        ref.size() * sizeof(float)),
            0)
      << "tuning changed logits — it must be pure scheduling";
  EXPECT_EQ(session.last_forward_stats(), ref_stats);

  // An explicit config tile beats the tune file's tile; an explicit backend
  // beats its kernel. Still bit-identical.
  nn::set_active_tune(tf);
  EngineConfig explicit_cfg = cfg;
  explicit_cfg.backend = MacBackend::kScalar;
  explicit_cfg.im2col_tile = 5;
  session.set_engine(explicit_cfg);
  const nn::Tensor explicit_out = session.forward(data.images);
  EXPECT_EQ(std::memcmp(ref.data().data(), explicit_out.data().data(),
                        ref.size() * sizeof(float)),
            0);
  EXPECT_EQ(session.last_forward_stats(), ref_stats);
}

TEST(Autotune, EveryTileWidthIsBitIdentical) {
  const auto data = data::make_synthetic_digits({.count = 2, .seed = 22});
  nn::InferenceSession session(nn::make_mnist_net(data.images.h()),
                               /*threads=*/1);
  session.calibrate(data.images);

  session.set_engine({.kind = EngineKind::kProposed, .n_bits = 8,
                      .backend = MacBackend::kAuto});
  const nn::Tensor ref = session.forward(data.images);
  const nn::MacStats ref_stats = session.last_forward_stats();

  for (const int tile : {1, 2, 7, 16, 1 << 12}) {
    session.set_engine({.kind = EngineKind::kProposed, .n_bits = 8,
                        .backend = MacBackend::kAuto, .im2col_tile = tile});
    const nn::Tensor got = session.forward(data.images);
    EXPECT_EQ(std::memcmp(ref.data().data(), got.data().data(),
                          ref.size() * sizeof(float)),
              0)
        << "tile=" << tile;
    EXPECT_EQ(session.last_forward_stats(), ref_stats) << "tile=" << tile;
  }
}

TEST(Autotune, ConfigValidatesTileRange) {
  EngineConfig cfg{.kind = EngineKind::kProposed, .n_bits = 8};
  cfg.im2col_tile = EngineConfig::kMaxIm2colTile;
  EXPECT_NO_THROW(cfg.validate());
  cfg.im2col_tile = EngineConfig::kMaxIm2colTile + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.im2col_tile = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Autotune, ConfigJsonCarriesIm2colTile) {
  EngineConfig cfg{.kind = EngineKind::kProposed, .n_bits = 8,
                   .backend = MacBackend::kScalar};
  cfg.im2col_tile = 48;
  const EngineConfig back = EngineConfig::from_json(cfg.to_json());
  EXPECT_EQ(back.im2col_tile, 48);
  EXPECT_EQ(back.to_json(), cfg.to_json());
}

}  // namespace
}  // namespace scnn

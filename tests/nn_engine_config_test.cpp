// EngineConfig's JSON round-trip — the contract behind --metrics-out
// stamping and `scnn_cli serve --engine-config=`: from_json(to_json(cfg))
// must reproduce every field for any valid configuration, and malformed
// input must be rejected with an error naming the offending token.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "nn/mac_engine.hpp"

namespace scnn::nn {
namespace {

TEST(EngineConfigJson, RoundTripsEveryFieldAcrossAConfigSweep) {
  for (const EngineKind kind :
       {EngineKind::kFixed, EngineKind::kScLfsr, EngineKind::kProposed}) {
    for (const MacBackend backend :
         {MacBackend::kAuto, MacBackend::kScalar, MacBackend::kSimd}) {
      for (const int n_bits : {2, 8, 12}) {
        for (const int accum_bits : {0, 2, 20}) {
          for (const int bit_parallel : {1, 8}) {
            for (const int threads : {0, 1, 4}) {
              for (const bool instrument : {false, true}) {
                for (const Sparsity sparsity :
                     {Sparsity::kDense, Sparsity::kZeroSkip, Sparsity::kAuto}) {
                  const EngineConfig cfg{.kind = kind,
                                         .n_bits = n_bits,
                                         .accum_bits = accum_bits,
                                         .bit_parallel = bit_parallel,
                                         .threads = threads,
                                         .instrument = instrument,
                                         .backend = backend,
                                         .sparsity = sparsity};
                  EXPECT_EQ(EngineConfig::from_json(cfg.to_json()), cfg)
                      << cfg.to_json();
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(EngineConfigJson, DefaultsSurviveTheTrip) {
  const EngineConfig def;
  EXPECT_EQ(EngineConfig::from_json(def.to_json()), def);
  // Absent keys keep their defaults: an empty object is the default config.
  EXPECT_EQ(EngineConfig::from_json("{}"), def);
  EXPECT_EQ(EngineConfig::from_json("  {\n}  "), def);
}

TEST(EngineConfigJson, AcceptsAnyKeyOrderAndWhitespace) {
  const EngineConfig cfg = EngineConfig::from_json(
      " { \"threads\" : 3 ,\n \"kind\" : \"fixed\" , \"backend\" : \"simd\" ,"
      " \"instrument\" : true , \"n_bits\" : 6 } ");
  EXPECT_EQ(cfg.kind, EngineKind::kFixed);
  EXPECT_EQ(cfg.backend, MacBackend::kSimd);
  EXPECT_EQ(cfg.n_bits, 6);
  EXPECT_EQ(cfg.threads, 3);
  EXPECT_TRUE(cfg.instrument);
  EXPECT_EQ(cfg.accum_bits, EngineConfig{}.accum_bits);  // untouched default
}

void expect_rejects(const std::string& json, const std::string& token) {
  try {
    (void)EngineConfig::from_json(json);
    FAIL() << "accepted: " << json;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(token), std::string::npos)
        << "error for `" << json << "` does not name `" << token
        << "`: " << e.what();
  }
}

TEST(EngineConfigJson, RejectsMalformedInputNamingTheOffender) {
  expect_rejects("", "end of input");
  expect_rejects("[]", "{");
  expect_rejects("{\"n_bits\":}", "integer");
  expect_rejects("{\"n_bits\":abc}", "integer");
  expect_rejects("{\"instrument\":yes}", "true or false");
  expect_rejects("{\"kind\":\"mystery\"}", "mystery");
  expect_rejects("{\"backend\":\"avx512\"}", "avx512");
  expect_rejects("{\"sparsity\":\"zig\"}", "zig");
  expect_rejects("{\"flux_capacitance\":3}", "flux_capacitance");
  expect_rejects("{\"n_bits\":8", "end of input");
  expect_rejects("{\"n_bits\":8}trailing", "trailing");
  expect_rejects("{\"n_bits\":8 \"threads\":1}", ",");
  expect_rejects("{\"n_bits\":2147483648}", "\"n_bits\": 2147483648 out of range");
}

TEST(EngineConfigJson, DecodesStringEscapes) {
  // "fixed" with its 'e' written as a unicode escape: the reader decodes
  // every JSON escape before the value reaches the enum lookup.
  EXPECT_EQ(EngineConfig::from_json("{\"kind\":\"fix\\u0065d\"}").kind,
            EngineKind::kFixed);
}

TEST(EngineConfigJson, FromJsonDoesNotRangeCheckValidateDoes) {
  // Parsing and validation are separate stages (parse errors name tokens,
  // range errors name fields); serve calls validate() after from_json().
  const EngineConfig cfg = EngineConfig::from_json("{\"n_bits\":40}");
  EXPECT_EQ(cfg.n_bits, 40);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(EngineConfigLabel, AppendsOnlyNonDefaultBackendsAndSparsity) {
  EXPECT_EQ((EngineConfig{.kind = EngineKind::kScLfsr, .n_bits = 9}.label()),
            "sc-lfsr/N=9");
  EXPECT_EQ((EngineConfig{.n_bits = 8, .backend = MacBackend::kScalar}.label()),
            "proposed/N=8/scalar");
  EXPECT_EQ((EngineConfig{.n_bits = 8, .backend = MacBackend::kSimd}.label()),
            "proposed/N=8/simd");
  EXPECT_EQ((EngineConfig{.n_bits = 8, .sparsity = Sparsity::kZeroSkip}.label()),
            "proposed/N=8/zero-skip");
  EXPECT_EQ((EngineConfig{.n_bits = 8, .backend = MacBackend::kScalar,
                          .sparsity = Sparsity::kDense}.label()),
            "proposed/N=8/scalar/dense");
}

TEST(EngineConfigJson, SparsityStringsRoundTripAndAliasParses) {
  for (const Sparsity s : {Sparsity::kDense, Sparsity::kZeroSkip, Sparsity::kAuto})
    EXPECT_EQ(sparsity_from_string(to_string(s)), s);
  // The underscore spelling is accepted on input (env vars and flags both
  // read naturally); the canonical output spelling stays "zero-skip".
  EXPECT_EQ(sparsity_from_string("zero_skip"), Sparsity::kZeroSkip);
  EXPECT_THROW(sparsity_from_string("sparse"), std::invalid_argument);
}

TEST(EngineConfigValidate, RejectsBadBackendEnum) {
  EngineConfig cfg;
  cfg.backend = static_cast<MacBackend>(42);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(EngineConfigValidate, RejectsBadSparsityEnum) {
  EngineConfig cfg;
  cfg.sparsity = static_cast<Sparsity>(42);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace scnn::nn

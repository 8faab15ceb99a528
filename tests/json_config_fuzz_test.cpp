// Fixed-seed, time-bounded fuzzing of every JSON entry point: the four config
// from_json (EngineConfig, TuneFile, TenantOptions, ServerOptions) and
// obs::json::parse, which all run on the one obs::json::Reader.
//   - Random valid values, strings full of quotes, backslashes, control and
//     high bytes included, survive from_json(to_json(x)) unchanged.
//   - Byte-mutated to_json() output and short random strings either parse or
//     throw std::invalid_argument prefixed "<Type>::from_json:"; parse()
//     returns a value or std::nullopt and never throws.
// Nothing may crash: the ASan+UBSan CI legs run this binary.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>

#include "nn/autotune.hpp"
#include "nn/mac_engine.hpp"
#include "obs/json.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"

namespace scnn {
namespace {

using nn::EngineConfig;
using nn::TuneFile;
using serve::ServerOptions;
using serve::TenantOptions;

constexpr std::uint64_t kSeed = 0x150b'7e57u;  // deterministic: reruns == CI
constexpr int kIterations = 3000;              // per test, unless out of time
constexpr auto kBudget = std::chrono::seconds(2);

/// Runs `body(rng)` kIterations times or until kBudget runs out.
template <typename Body>
void fuzz(Body&& body) {
  std::mt19937_64 rng(kSeed);
  const auto stop = std::chrono::steady_clock::now() + kBudget;
  for (int i = 0; i < kIterations && std::chrono::steady_clock::now() < stop; ++i)
    body(rng);
}

int pick(std::mt19937_64& rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(rng);
}

bool coin(std::mt19937_64& rng) { return pick(rng, 0, 1) == 1; }

/// Either sign, any magnitude, and now and then a limit of the type.
template <typename Int>
Int any(std::mt19937_64& rng) {
  if (pick(rng, 0, 15) == 0)
    return coin(rng) ? std::numeric_limits<Int>::min() : std::numeric_limits<Int>::max();
  const auto v = static_cast<std::int64_t>(rng() >> pick(rng, 1, 63));
  return static_cast<Int>((coin(rng) ? v : -v) % std::numeric_limits<Int>::max());
}

/// Strings that stress the escaper and the decoder.
std::string any_string(std::mt19937_64& rng) {
  static constexpr std::string_view kChars = "ab/ \"\\\n\t\r\b\f\x01\x1f\x7f\xc3\xa9u0";
  std::string s;
  for (int n = pick(rng, 0, 10); n > 0; --n)
    s += kChars[static_cast<std::size_t>(pick(rng, 0, static_cast<int>(kChars.size()) - 1))];
  return s;
}

/// Finite doubles drawn from the whole bit space (subnormals, huge, -0).
double any_double(std::mt19937_64& rng) {
  while (true) {
    const double d = std::bit_cast<double>(rng());
    if (std::isfinite(d)) return d;
  }
}

EngineConfig any_engine(std::mt19937_64& rng) {
  EngineConfig cfg;
  cfg.kind = static_cast<nn::EngineKind>(pick(rng, 0, 2));
  cfg.backend = static_cast<nn::MacBackend>(pick(rng, 0, 3));
  cfg.sparsity = static_cast<nn::Sparsity>(pick(rng, 0, 2));
  cfg.n_bits = any<int>(rng);
  cfg.accum_bits = any<int>(rng);
  cfg.bit_parallel = any<int>(rng);
  cfg.threads = any<int>(rng);
  cfg.im2col_tile = any<int>(rng);
  cfg.instrument = coin(rng);
  return cfg;
}

TuneFile any_tune(std::mt19937_64& rng) {
  TuneFile tf;
  tf.cpu_signature = any_string(rng);
  tf.git_sha = any_string(rng);
  tf.best_backend = any_string(rng);
  tf.best_tile = any<int>(rng);
  tf.best_threads = any<int>(rng);
  for (int n = pick(rng, 0, 3); n > 0; --n)
    tf.entries.push_back({any_string(rng), any<int>(rng), any<int>(rng), any_double(rng)});
  return tf;
}

TenantOptions any_tenant(std::mt19937_64& rng) {
  TenantOptions t;
  t.name = any_string(rng);
  t.checkpoint = any_string(rng);
  t.shards = any<int>(rng);
  if (coin(rng)) t.engine = any_engine(rng);
  return t;
}

ServerOptions any_server(std::mt19937_64& rng) {
  ServerOptions o;
  o.workers = any<int>(rng);
  o.session_threads = any<int>(rng);
  o.max_batch = any<int>(rng);
  o.max_delay_us = any<int>(rng);
  o.queue_capacity = any<int>(rng);
  o.queue_kind = static_cast<serve::QueueKind>(pick(rng, 0, 1));
  o.default_deadline_us = any<std::int64_t>(rng);
  if (coin(rng)) o.engine = any_engine(rng);
  o.start_paused = coin(rng);
  o.trace = coin(rng);
  o.flight_recorder = coin(rng);
  o.flight_capacity = any<int>(rng);
  o.reject_burst = any<int>(rng);
  o.flight_dump_prefix = any_string(rng);
  for (int n = pick(rng, 0, 2); n > 0; --n) o.tenants.push_back(any_tenant(rng));
  return o;
}

/// One to four edits, biased toward bytes that matter to a JSON tokenizer.
std::string mutate(std::string s, std::mt19937_64& rng) {
  static constexpr std::string_view kBytes = "{}[]\":,\\-+.eE0123456789 tfnu\x01\xff";
  for (int n = pick(rng, 1, 4); n > 0; --n) {
    const char b = kBytes[static_cast<std::size_t>(pick(rng, 0, static_cast<int>(kBytes.size()) - 1))];
    const auto at = static_cast<std::size_t>(pick(rng, 0, static_cast<int>(s.size())));
    switch (pick(rng, 0, 3)) {
      case 0: s.insert(at, 1, b); break;
      case 1: if (at < s.size()) s.erase(at, 1); break;
      case 2: if (at < s.size()) s[at] = b; break;
      default: s.resize(at);  // truncation
    }
  }
  return s;
}

/// Short text over the JSON token alphabet, often wrapped as an object.
std::string random_text(std::mt19937_64& rng) {
  static constexpr std::string_view kBytes = "{}[]\":,\\-.eE019 \nabtrufsln_\x01\x80";
  std::string s;
  for (int n = pick(rng, 0, 24); n > 0; --n)
    s += kBytes[static_cast<std::size_t>(pick(rng, 0, static_cast<int>(kBytes.size()) - 1))];
  return coin(rng) ? "{" + s + "}" : s;
}

/// `T::from_json(text)` either returns or throws std::invalid_argument
/// whose message starts "<type>::from_json:".
template <typename T>
void expect_parses_or_names_type(const std::string& text, std::string_view type) {
  const std::string prefix = std::string(type) + "::from_json:";
  try {
    (void)T::from_json(text);
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string_view(e.what()).substr(0, prefix.size()), prefix)
        << "input: " << text;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "unexpected exception " << e.what() << " for input: " << text;
  }
}

void expect_parse_never_throws(const std::string& text) {
  EXPECT_NO_THROW((void)obs::json::parse(text)) << "input: " << text;
}

void expect_every_reader_survives(const std::string& text) {
  expect_parses_or_names_type<EngineConfig>(text, "EngineConfig");
  expect_parses_or_names_type<TuneFile>(text, "TuneFile");
  expect_parses_or_names_type<TenantOptions>(text, "TenantOptions");
  expect_parses_or_names_type<ServerOptions>(text, "ServerOptions");
  expect_parse_never_throws(text);
}

TEST(JsonConfigFuzz, RandomValuesRoundTripExactly) {
  fuzz([](std::mt19937_64& rng) {
    const EngineConfig cfg = any_engine(rng);
    ASSERT_EQ(EngineConfig::from_json(cfg.to_json()), cfg) << cfg.to_json();
    const TuneFile tf = any_tune(rng);
    ASSERT_EQ(TuneFile::from_json(tf.to_json()), tf) << tf.to_json();
    const TenantOptions t = any_tenant(rng);
    ASSERT_EQ(TenantOptions::from_json(t.to_json()).to_json(), t.to_json());
    const ServerOptions o = any_server(rng);
    const std::string json = o.to_json();
    ASSERT_EQ(ServerOptions::from_json(json).to_json(), json);
    // Every writer's output is a JSON document the DOM reader accepts.
    ASSERT_TRUE(obs::json::parse(json).has_value()) << json;
  });
}

TEST(JsonConfigFuzz, MutatedOutputParsesOrNamesTheType) {
  fuzz([](std::mt19937_64& rng) {
    const std::string engine = mutate(any_engine(rng).to_json(), rng);
    expect_parses_or_names_type<EngineConfig>(engine, "EngineConfig");
    expect_parse_never_throws(engine);
    const std::string tune = mutate(any_tune(rng).to_json(), rng);
    expect_parses_or_names_type<TuneFile>(tune, "TuneFile");
    expect_parse_never_throws(tune);
    const std::string tenant = mutate(any_tenant(rng).to_json(), rng);
    expect_parses_or_names_type<TenantOptions>(tenant, "TenantOptions");
    expect_parse_never_throws(tenant);
    const std::string server = mutate(any_server(rng).to_json(), rng);
    expect_parses_or_names_type<ServerOptions>(server, "ServerOptions");
    expect_parse_never_throws(server);
  });
}

TEST(JsonConfigFuzz, RandomTextParsesOrNamesTheType) {
  fuzz([](std::mt19937_64& rng) { expect_every_reader_survives(random_text(rng)); });
}

}  // namespace
}  // namespace scnn

// The project's one JSON reader.
//
// `Reader` is a cursor over a JSON text: the single tokenizer, string decoder
// (all escapes, \u included) and number parser in the tree. Two things sit
// on it:
//   - parse(), a small DOM for the observability plane's own artifacts —
//     `tools/bench_compare` diffs BENCH_*.json reports, and tests read back
//     exported traces and flight dumps;
//   - the config structs' from_json (nn::EngineConfig, nn::TuneFile,
//     serve::TenantOptions, serve::ServerOptions), which are plain key
//     dispatch over Reader::object() and read nested objects in place.
// Anything malformed is rejected rather than guessed at. Reader errors throw
// std::invalid_argument("<where>: ...") naming the offending token, the key
// it belongs to and its byte offset; parse() turns them into std::nullopt.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace scnn::obs::json {

enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

struct Value {
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<std::pair<std::string, Value>> object;  ///< insertion order kept
  std::vector<Value> array;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
};

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected). std::nullopt on any syntax error.
[[nodiscard]] std::optional<Value> parse(std::string_view text);

class Reader {
 public:
  /// `where` prefixes every error, e.g. "EngineConfig::from_json".
  Reader(std::string_view text, std::string where)
      : s_(text), where_(std::move(where)) {}

  [[noreturn]] void fail(const std::string& what) const;
  /// The key of the member being read is not one the caller knows.
  [[noreturn]] void unknown_key() const;

  /// Next non-whitespace character, not consumed; fails at end of input.
  [[nodiscard]] char peek();
  /// Only whitespace may follow the document.
  void finish();

  /// Reads the object at the cursor: `member(key)` runs once per member with
  /// the cursor on its value, and must consume that value.
  template <typename Fn>
  void object(Fn&& member) {
    for (bool more = open_('{', '}'); more; more = next_('}')) {
      const std::string key = member_key_();
      member(key);
    }
  }
  /// Reads the array at the cursor: `item()` consumes one element per call.
  /// Errors inside an element name the array's key.
  template <typename Fn>
  void array(Fn&& item) {
    const std::string key = key_;
    for (bool more = open_('[', ']'); more; more = next_(']')) {
      key_ = key;
      item();
    }
  }

  void read(std::string& out);
  void read(bool& out);
  void read(double& out);
  /// An integral number (1, -7, 3e2), range-checked against T.
  template <std::signed_integral T>
  void read(T& out) {
    out = static_cast<T>(integer_(std::numeric_limits<T>::min(),
                                  std::numeric_limits<T>::max()));
  }
  void read_null();
  /// A string mapped through `decode` (an enum's *_from_string); the
  /// invalid_argument it throws is re-thrown with this reader's prefix, the
  /// key and the offset.
  template <typename Decode>
  auto read_as(Decode&& decode) {
    const std::size_t at = token_start_();
    std::string s;
    read(s);
    try {
      return decode(s);
    } catch (const std::invalid_argument& e) {
      fail_at_(at, e.what());
    }
  }

 private:
  std::size_t token_start_();
  [[noreturn]] void fail_at_(std::size_t at, const std::string& what) const;
  [[noreturn]] void fail_expected_(std::size_t at, const char* what) const;
  bool open_(char open, char close);
  bool next_(char close);
  std::string member_key_();
  std::string_view number_token_(const char* what);
  std::int64_t integer_(std::int64_t lo, std::int64_t hi);

  std::string_view s_;
  std::string where_;
  std::size_t pos_ = 0;
  std::string key_;          ///< key of the member being read ("" at top)
  std::size_t key_at_ = 0;   ///< offset of that key's opening quote
};

}  // namespace scnn::obs::json

#include "obs/json.hpp"

#include <charconv>
#include <cmath>

namespace scnn::obs::json {

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Reader

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

void append_utf8(std::string& out, unsigned cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

}  // namespace

void Reader::fail(const std::string& what) const {
  throw std::invalid_argument(where_ + ": " + what);
}

void Reader::fail_at_(std::size_t at, const std::string& what) const {
  fail((key_.empty() ? "" : "\"" + key_ + "\": ") + what + " at offset " +
       std::to_string(at));
}

void Reader::fail_expected_(std::size_t at, const char* what) const {
  if (at >= s_.size()) fail("unexpected end of input");
  fail_at_(at, std::string("expected ") + what + ", got '" + s_[at] + "'");
}

void Reader::unknown_key() const {
  fail("unknown key \"" + key_ + "\" at offset " + std::to_string(key_at_));
}

std::size_t Reader::token_start_() {
  while (pos_ < s_.size()) {
    const char c = s_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
  return pos_;
}

char Reader::peek() {
  if (token_start_() >= s_.size()) fail("unexpected end of input");
  return s_[pos_];
}

void Reader::finish() {
  if (token_start_() != s_.size())
    fail("trailing characters at offset " + std::to_string(pos_) + ": '" +
         std::string(s_.substr(pos_, 32)) + "'");
}

bool Reader::open_(char open, char close) {
  const std::size_t at = token_start_();
  if (at >= s_.size() || s_[at] != open) fail_expected_(at, open == '{' ? "'{'" : "'['");
  ++pos_;
  if (peek() != close) return true;
  ++pos_;
  return false;
}

bool Reader::next_(char close) {
  const char c = peek();
  if (c != ',' && c != close)
    fail(std::string("expected ',' or '") + close + "', got '" + c +
         "' at offset " + std::to_string(pos_));
  ++pos_;
  return c == ',';
}

std::string Reader::member_key_() {
  key_.clear();
  key_at_ = token_start_();
  std::string key;
  read(key);
  key_ = key;
  if (peek() != ':') fail_expected_(pos_, "':'");
  ++pos_;
  return key;
}

void Reader::read(std::string& out) {
  const std::size_t at = token_start_();
  if (at >= s_.size() || s_[at] != '"') fail_expected_(at, "a string");
  ++pos_;
  out.clear();
  const auto hex4 = [&] {
    if (pos_ + 4 > s_.size()) fail_at_(pos_, "truncated \\u escape");
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = s_[pos_++];
      cp <<= 4;
      if (is_digit(h)) cp |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
      else fail_at_(pos_ - 1, std::string("bad hex digit '") + h + "' in \\u escape");
    }
    return cp;
  };
  while (true) {
    if (pos_ >= s_.size()) fail_at_(at, "unterminated string");
    const char c = s_[pos_++];
    if (c == '"') return;
    if (static_cast<unsigned char>(c) < 0x20)
      fail_at_(pos_ - 1, "raw control character in string");
    if (c != '\\') {
      out += c;
      continue;
    }
    if (pos_ >= s_.size()) fail_at_(at, "unterminated string");
    const char e = s_[pos_++];
    switch (e) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u':
        append_utf8(out, hex4());  // surrogate pairs untreated: the project never emits them
        break;
      default:
        fail_at_(pos_ - 2, std::string("invalid escape '\\") + e + "'");
    }
  }
}

void Reader::read(bool& out) {
  const std::size_t at = token_start_();
  if (s_.substr(at, 4) == "true") {
    pos_ += 4;
    out = true;
  } else if (s_.substr(at, 5) == "false") {
    pos_ += 5;
    out = false;
  } else {
    fail_expected_(at, "true or false");
  }
}

void Reader::read_null() {
  const std::size_t at = token_start_();
  if (s_.substr(at, 4) != "null") fail_expected_(at, "null");
  pos_ += 4;
}

// One number token per the JSON grammar: -?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?
std::string_view Reader::number_token_(const char* what) {
  const std::size_t at = token_start_();
  std::size_t i = at;
  const auto digits = [&] {
    const std::size_t from = i;
    while (i < s_.size() && is_digit(s_[i])) ++i;
    return i > from;
  };
  if (i < s_.size() && s_[i] == '-') ++i;
  if (i >= s_.size() || !is_digit(s_[i])) fail_expected_(at, what);
  if (s_[i] == '0') ++i;
  else digits();
  bool ok = true;
  if (i < s_.size() && s_[i] == '.') {
    ++i;
    ok = digits();
  }
  if (ok && i < s_.size() && (s_[i] == 'e' || s_[i] == 'E')) {
    ++i;
    if (i < s_.size() && (s_[i] == '+' || s_[i] == '-')) ++i;
    ok = digits();
  }
  const std::string_view tok = s_.substr(at, i - at);
  if (!ok) fail_at_(at, "malformed number '" + std::string(tok) + "'");
  pos_ = i;
  return tok;
}

void Reader::read(double& out) {
  const std::string_view tok = number_token_("a number");
  const std::size_t at = pos_ - tok.size();
  if (std::from_chars(tok.data(), tok.data() + tok.size(), out).ec != std::errc{})
    fail_at_(at, "number " + std::string(tok) + " out of range");
}

std::int64_t Reader::integer_(std::int64_t lo, std::int64_t hi) {
  const std::string_view tok = number_token_("an integer");
  const std::size_t at = pos_ - tok.size();
  const auto out_of_range = [&] {
    fail_at_(at, std::string(tok) + " out of range [" + std::to_string(lo) +
                     ", " + std::to_string(hi) + "]");
  };
  std::int64_t v = 0;
  if (tok.find_first_of(".eE") == std::string_view::npos) {
    if (std::from_chars(tok.data(), tok.data() + tok.size(), v).ec != std::errc{})
      out_of_range();
  } else {
    // 3e2 and 2.0 are integers too; the double is range-checked before the
    // cast so an out-of-range value never reaches it.
    double d = 0.0;
    const bool parsed =
        std::from_chars(tok.data(), tok.data() + tok.size(), d).ec == std::errc{};
    if (parsed && d != std::trunc(d))
      fail_at_(at, "expected an integer, got " + std::string(tok));
    if (!parsed || !(d >= -0x1p63 && d < 0x1p63)) out_of_range();
    v = static_cast<std::int64_t>(d);
  }
  if (v < lo || v > hi) out_of_range();
  return v;
}

// ---------------------------------------------------------------------------
// DOM

namespace {

// Nesting bound: the project's own files are at most ~4 levels deep, and a
// hard cap keeps a hostile/corrupt input from exhausting the stack.
constexpr int kMaxDepth = 64;

Value read_value(Reader& in, int depth) {
  if (depth > kMaxDepth) in.fail("nesting deeper than " + std::to_string(kMaxDepth));
  Value v;
  switch (in.peek()) {
    case '{':
      v.kind = Kind::kObject;
      in.object([&](const std::string& key) {
        v.object.emplace_back(key, read_value(in, depth + 1));
      });
      break;
    case '[':
      v.kind = Kind::kArray;
      in.array([&] { v.array.push_back(read_value(in, depth + 1)); });
      break;
    case '"':
      v.kind = Kind::kString;
      in.read(v.string);
      break;
    case 't':
    case 'f':
      v.kind = Kind::kBool;
      in.read(v.boolean);
      break;
    case 'n': in.read_null(); break;
    default:
      v.kind = Kind::kNumber;
      in.read(v.number);
  }
  return v;
}

}  // namespace

std::optional<Value> parse(std::string_view text) {
  try {
    Reader in(text, "obs::json::parse");
    Value v = read_value(in, 0);
    in.finish();
    return v;
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

}  // namespace scnn::obs::json

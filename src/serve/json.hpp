// Minimal JSON emission for the serving layer: no external dependency,
// string-building only. Values are written in call order; the writer does
// not validate nesting beyond matched open/close, so misuse shows up as
// malformed output in tests rather than UB.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace asrel::serve {

/// Appends `s` as a JSON string literal (quotes included) onto `out`.
/// UTF-8 bytes pass through untouched; control characters are \u-escaped.
/// Runs of clean bytes are appended in bulk — the serve hot path emits
/// dozens of keys per response, and a per-character loop with a temporary
/// string per key was the single biggest cost in the /rel handler.
inline void json_quote_into(std::string& out, std::string_view s) {
  const auto needs_escape = [](char c) {
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
  };
  out.push_back('"');
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (!needs_escape(c)) continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default: {
        char buffer[8];
        std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                      static_cast<unsigned>(c));
        out += buffer;
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out.push_back('"');
}

/// Escapes `s` into a fresh JSON string literal (quotes included).
inline std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  json_quote_into(out, s);
  return out;
}

/// Streaming object/array builder with automatic comma placement.
class JsonWriter {
 public:
  JsonWriter() { out_.reserve(256); }

  JsonWriter& begin_object() {
    separate();
    out_.push_back('{');
    fresh_ = true;
    return *this;
  }
  JsonWriter& end_object() {
    out_.push_back('}');
    fresh_ = false;
    return *this;
  }
  JsonWriter& begin_array() {
    separate();
    out_.push_back('[');
    fresh_ = true;
    return *this;
  }
  JsonWriter& end_array() {
    out_.push_back(']');
    fresh_ = false;
    return *this;
  }

  JsonWriter& key(std::string_view name) {
    separate();
    json_quote_into(out_, name);
    out_.push_back(':');
    after_key_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view s) {
    separate();
    json_quote_into(out_, s);
    return *this;
  }
  JsonWriter& value(const char* s) { return value(std::string_view{s}); }
  JsonWriter& value(bool b) {
    separate();
    out_ += b ? "true" : "false";
    return *this;
  }
  JsonWriter& value(double d) {
    separate();
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.6g", d);
    out_ += buffer;
    return *this;
  }
  JsonWriter& value(std::uint64_t v) {
    separate();
    char buffer[24];
    const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), v);
    out_.append(buffer, end);
    return *this;
  }
  JsonWriter& value(std::int64_t v) {
    separate();
    char buffer[24];
    const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), v);
    out_.append(buffer, end);
    return *this;
  }
  JsonWriter& value(std::uint32_t v) {
    return value(static_cast<std::uint64_t>(v));
  }
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& null() {
    separate();
    out_ += "null";
    return *this;
  }

  template <typename T>
  JsonWriter& field(std::string_view name, T&& v) {
    key(name);
    return value(std::forward<T>(v));
  }

  /// Splices a prebuilt JSON fragment (already valid JSON) as a value.
  JsonWriter& raw(std::string_view fragment) {
    separate();
    out_ += fragment;
    return *this;
  }

  [[nodiscard]] std::string str() && { return std::move(out_); }
  [[nodiscard]] const std::string& str() const& { return out_; }

 private:
  void separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!fresh_ && !out_.empty() && out_.back() != '{' &&
        out_.back() != '[') {
      out_.push_back(',');
    }
    fresh_ = false;
  }

  std::string out_;
  bool fresh_ = true;
  bool after_key_ = false;
};

}  // namespace asrel::serve

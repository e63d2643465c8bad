// The one JSON writer behind every export (tables, bench telemetry,
// energy profiles, metrics, traces, netstats).
//
// Strings escape `"`, `\`, `\n`, `\t` and every other byte below 0x20
// (as `\u00XX`), so no name is dropped or merged with another. Numbers
// come in two forms: `number()` (17 significant digits, `%.17g`) and
// `fixed()` (fixed decimals, never an exponent — Chrome timestamps and
// ids). Both render a non-finite value as `null`.
//
// Layout is one rule on nesting depth: a container opened at depth 0 or
// 1 puts each member on its own line, indented two spaces per level;
// deeper containers stay on one line with ", " between members. So a
// trace keeps one event per line and a per-node array stays inline.
#pragma once

#include <concepts>
#include <string>
#include <string_view>
#include <vector>

namespace braidio::util::json {

/// `s` as the contents of a JSON string literal.
std::string escape(std::string_view s);

/// `%.17g`, or `null` when `v` is not finite.
std::string number(double v);

/// `%.*f` with `decimals` decimals, or `null` when `v` is not finite.
std::string fixed(double v, int decimals);

class Writer {
 public:
  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();

  /// An object member's key; the next call writes its value.
  Writer& key(std::string_view k);

  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(double v) { return scalar(number(v)); }
  Writer& value(bool v) { return scalar(v ? "true" : "false"); }
  template <std::integral T>
  Writer& value(T v) {
    return scalar(std::to_string(v));
  }
  Writer& fixed(double v, int decimals) {
    return scalar(json::fixed(v, decimals));
  }
  Writer& null() { return scalar("null"); }

  /// `values` as one array.
  template <typename Range>
  Writer& array(const Range& values) {
    begin_array();
    for (const auto& v : values) value(v);
    return end_array();
  }

  /// The finished document, newline-terminated. Every container must be
  /// closed.
  std::string str() const;

 private:
  struct Open {
    bool object;
    bool has_members;
  };

  Writer& scalar(std::string_view text);
  /// Separator and indentation before a key or an array element.
  void separate();
  void before_value();
  Writer& open(char bracket, bool object);
  Writer& close(char bracket, bool object);

  std::string out_;
  std::vector<Open> open_;
  bool after_key_ = false;
};

}  // namespace braidio::util::json

#include "util/json.hpp"

#include <cmath>
#include <cstdio>

#include "util/contract.hpp"

namespace braidio::util::json {

// Containers opened at this depth or deeper stay on one line.
constexpr std::size_t kInlineDepth = 2;

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fixed(double v, int decimals) {
  if (!std::isfinite(v)) return "null";
  const int n = std::snprintf(nullptr, 0, "%.*f", decimals, v);
  std::string out(static_cast<std::size_t>(n), '\0');
  std::snprintf(out.data(), out.size() + 1, "%.*f", decimals, v);
  return out;
}

Writer& Writer::begin_object() { return open('{', true); }
Writer& Writer::end_object() { return close('}', true); }
Writer& Writer::begin_array() { return open('[', false); }
Writer& Writer::end_array() { return close(']', false); }

Writer& Writer::key(std::string_view k) {
  BRAIDIO_REQUIRE(!open_.empty() && open_.back().object && !after_key_,
                  "depth", open_.size(), "after_key", after_key_);
  separate();
  out_ += '"' + escape(k) + "\": ";
  after_key_ = true;
  return *this;
}

Writer& Writer::value(std::string_view s) {
  return scalar('"' + escape(s) + '"');
}

std::string Writer::str() const {
  BRAIDIO_REQUIRE(open_.empty() && !out_.empty(), "depth", open_.size(),
                  "bytes", out_.size());
  return out_ + '\n';
}

Writer& Writer::scalar(std::string_view text) {
  before_value();
  out_ += text;
  return *this;
}

void Writer::separate() {
  Open& top = open_.back();
  if (top.has_members) out_ += ',';
  if (open_.size() <= kInlineDepth) {
    out_ += '\n';
    out_.append(2 * open_.size(), ' ');
  } else if (top.has_members) {
    out_ += ' ';
  }
  top.has_members = true;
}

void Writer::before_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  // Outside an object member, a value is an array element or the root.
  BRAIDIO_REQUIRE(open_.empty() ? out_.empty() : !open_.back().object,
                  "depth", open_.size(), "bytes", out_.size());
  if (!open_.empty()) separate();
}

Writer& Writer::open(char bracket, bool object) {
  before_value();
  out_ += bracket;
  open_.push_back({object, false});
  return *this;
}

Writer& Writer::close(char bracket, bool object) {
  BRAIDIO_REQUIRE(!open_.empty() && open_.back().object == object &&
                      !after_key_,
                  "depth", open_.size(), "after_key", after_key_);
  const bool had_members = open_.back().has_members;
  open_.pop_back();
  if (had_members && open_.size() < kInlineDepth) {
    out_ += '\n';
    out_.append(2 * open_.size(), ' ');
  }
  out_ += bracket;
  return *this;
}

}  // namespace braidio::util::json

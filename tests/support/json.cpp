#include "support/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace hmcc::json {
namespace {

constexpr int kMaxDepth = 64;

struct Parser {
  const char* p;
  const char* end;
  std::string err;

  void skip_ws() {
    while (p < end &&
           (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }

  bool fail(const char* what) {
    if (err.empty()) err = what;
    return false;
  }

  bool literal(const char* lit) {
    const char* q = lit;
    const char* save = p;
    while (*q != '\0') {
      if (p >= end || *p != *q) {
        p = save;
        return fail("invalid literal");
      }
      ++p;
      ++q;
    }
    return true;
  }

  bool parse_hex4(unsigned& out) {
    out = 0;
    for (int i = 0; i < 4; ++i) {
      if (p >= end) return fail("truncated \\u escape");
      const char c = *p++;
      unsigned digit = 0;
      if (c >= '0' && c <= '9') {
        digit = static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<unsigned>(c - 'a') + 10;
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<unsigned>(c - 'A') + 10;
      } else {
        return fail("bad \\u escape digit");
      }
      out = (out << 4) | digit;
    }
    return true;
  }

  static void append_utf8(std::string& s, unsigned cp) {
    if (cp < 0x80) {
      s.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      s.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      s.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      s.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      s.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool parse_string(std::string& out) {
    if (p >= end || *p != '"') return fail("expected string");
    ++p;
    out.clear();
    while (p < end) {
      const char c = *p++;
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (p >= end) return fail("truncated escape");
      const char e = *p++;
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned cp = 0;
          if (!parse_hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            if (p + 1 < end && p[0] == '\\' && p[1] == 'u') {
              p += 2;
              unsigned lo = 0;
              if (!parse_hex4(lo)) return false;
              if (lo < 0xDC00 || lo > 0xDFFF) {
                return fail("unpaired surrogate");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              return fail("unpaired surrogate");
            }
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(Value& out) {
    const char* start = p;
    if (p < end && *p == '-') ++p;
    const char* int_start = p;
    while (p < end && *p >= '0' && *p <= '9') ++p;
    if (p == int_start) return fail("bad number");
    bool integral = true;
    if (p < end && *p == '.') {
      integral = false;
      ++p;
      const char* frac_start = p;
      while (p < end && *p >= '0' && *p <= '9') ++p;
      // JSON requires a digit after the point ("1." is not a number, even
      // if from_chars would accept it).
      if (p == frac_start) return fail("bad number");
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
      integral = false;
      ++p;
      if (p < end && (*p == '+' || *p == '-')) ++p;
      const char* exp_start = p;
      while (p < end && *p >= '0' && *p <= '9') ++p;
      if (p == exp_start) return fail("bad number");
    }
    if (integral) {
      std::int64_t i = 0;
      const auto [q, ec] = std::from_chars(start, p, i);
      if (ec == std::errc() && q == p) {
        out = i;
        return true;
      }
      // fall through: out-of-int64-range integers become doubles
    }
    double d = 0;
    const auto [q, ec] = std::from_chars(start, p, d);
    if (ec != std::errc() || q != p || p == start) {
      return fail("bad number");
    }
    out = d;
    return true;
  }

  bool parse_value(Value& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (p >= end) return fail("unexpected end of input");
    switch (*p) {
      case 'n':
        if (!literal("null")) return false;
        out = nullptr;
        return true;
      case 't':
        if (!literal("true")) return false;
        out = true;
        return true;
      case 'f':
        if (!literal("false")) return false;
        out = false;
        return true;
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = std::move(s);
        return true;
      }
      case '[': {
        ++p;
        Array a;
        skip_ws();
        if (p < end && *p == ']') {
          ++p;
          out = std::move(a);
          return true;
        }
        for (;;) {
          Value v;
          if (!parse_value(v, depth + 1)) return false;
          a.push_back(std::move(v));
          skip_ws();
          if (p < end && *p == ',') {
            ++p;
            continue;
          }
          if (p < end && *p == ']') {
            ++p;
            out = std::move(a);
            return true;
          }
          return fail("expected ',' or ']' in array");
        }
      }
      case '{': {
        ++p;
        Object o;
        skip_ws();
        if (p < end && *p == '}') {
          ++p;
          out = std::move(o);
          return true;
        }
        for (;;) {
          skip_ws();
          std::string key;
          if (!parse_string(key)) return false;
          skip_ws();
          if (p >= end || *p != ':') return fail("expected ':' in object");
          ++p;
          Value v;
          if (!parse_value(v, depth + 1)) return false;
          bool replaced = false;
          for (auto& [k, existing] : o) {
            if (k == key) {  // duplicate key: last one wins
              existing = std::move(v);
              replaced = true;
              break;
            }
          }
          if (!replaced) o.emplace_back(std::move(key), std::move(v));
          skip_ws();
          if (p < end && *p == ',') {
            ++p;
            continue;
          }
          if (p < end && *p == '}') {
            ++p;
            out = std::move(o);
            return true;
          }
          return fail("expected ',' or '}' in object");
        }
      }
      default:
        return parse_number(out);
    }
  }
};

void dump_to(const Value& v, std::string& out);

void dump_object(const Object& o, std::string& out) {
  out.push_back('{');
  bool first = true;
  for (const auto& [k, v] : o) {
    if (!first) out.push_back(',');
    first = false;
    out += quote(k);
    out.push_back(':');
    dump_to(v, out);
  }
  out.push_back('}');
}

void dump_to(const Value& v, std::string& out) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_int()) {
    out += std::to_string(v.as_int());
  } else if (v.is_double()) {
    const double d = v.as_double();
    if (!std::isfinite(d)) {
      out += "null";
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    out += buf;
  } else if (v.is_string()) {
    out += quote(v.as_string());
  } else if (v.is_array()) {
    out.push_back('[');
    bool first = true;
    for (const Value& e : v.as_array()) {
      if (!first) out.push_back(',');
      first = false;
      dump_to(e, out);
    }
    out.push_back(']');
  } else {
    dump_object(v.as_object(), out);
  }
}

}  // namespace

const Value* Value::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : as_object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Value::dump() const {
  std::string out;
  dump_to(*this, out);
  return out;
}

std::optional<Value> parse(const std::string& text, std::string* error) {
  Parser parser{text.data(), text.data() + text.size(), {}};
  Value v;
  if (!parser.parse_value(v, 0)) {
    if (error) *error = parser.err;
    return std::nullopt;
  }
  parser.skip_ws();
  if (parser.p != parser.end) {
    if (error) *error = "trailing garbage after document";
    return std::nullopt;
  }
  return v;
}

std::string quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace hmcc::json

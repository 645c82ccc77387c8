#include "obs/sinks.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace jrsnd::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

char* format_json_double(char* first, double value) noexcept {
  if (!std::isfinite(value)) {
    std::memcpy(first, "null", 4);
    return first + 4;
  }
  return std::to_chars(first, first + kJsonDoubleChars, value).ptr;
}

namespace {

void write_double(std::ostream& os, double value) {
  char buf[kJsonDoubleChars];
  os.write(buf, format_json_double(buf, value) - buf);
}

void write_value(std::ostream& os, const FieldValue& value) {
  if (const auto* s = std::get_if<std::string>(&value)) {
    os << '"' << json_escape(*s) << '"';
  } else if (const auto* d = std::get_if<double>(&value)) {
    write_double(os, *d);
  } else if (const auto* i = std::get_if<std::int64_t>(&value)) {
    os << *i;
  } else if (const auto* u = std::get_if<std::uint64_t>(&value)) {
    os << *u;
  } else if (const auto* b = std::get_if<bool>(&value)) {
    os << (*b ? "true" : "false");
  }
}

}  // namespace

void write_jsonl(std::ostream& os, const TraceEvent& event) {
  os << "{\"t\":";
  write_double(os, event.t);
  os << ",\"seq\":" << event.seq << ",\"sev\":\""
     << severity_name(event.severity) << "\",\"event\":\"" << json_escape(event.name) << '"';
  for (const auto& [key, value] : event.fields) {
    os << ",\"" << json_escape(key) << "\":";
    write_value(os, value);
  }
  os << "}\n";
}

// --- minimal flat-object JSON parser ---------------------------------------

namespace {

struct Cursor {
  std::string_view text;
  std::size_t pos = 0;

  [[nodiscard]] bool eof() const noexcept { return pos >= text.size(); }
  [[nodiscard]] char peek() const noexcept { return text[pos]; }
  void skip_ws() noexcept {
    while (!eof() && std::isspace(static_cast<unsigned char>(text[pos])) != 0) ++pos;
  }
  bool consume(char c) noexcept {
    skip_ws();
    if (eof() || text[pos] != c) return false;
    ++pos;
    return true;
  }
};

bool parse_string(Cursor& cur, std::string& out) {
  if (!cur.consume('"')) return false;
  out.clear();
  while (!cur.eof()) {
    const char c = cur.text[cur.pos++];
    if (c == '"') return true;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (cur.eof()) return false;
    const char esc = cur.text[cur.pos++];
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        if (cur.pos + 4 > cur.text.size()) return false;
        unsigned code = 0;
        const auto [ptr, ec] = std::from_chars(cur.text.data() + cur.pos,
                                               cur.text.data() + cur.pos + 4, code, 16);
        if (ec != std::errc() || ptr != cur.text.data() + cur.pos + 4) return false;
        cur.pos += 4;
        if (code < 0x80) {
          out += static_cast<char>(code);
        } else if (code < 0x800) {
          out += static_cast<char>(0xc0 | (code >> 6));
          out += static_cast<char>(0x80 | (code & 0x3f));
        } else {
          out += static_cast<char>(0xe0 | (code >> 12));
          out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
          out += static_cast<char>(0x80 | (code & 0x3f));
        }
        break;
      }
      default: return false;
    }
  }
  return false;  // unterminated
}

bool parse_value(Cursor& cur, FieldValue& out) {
  cur.skip_ws();
  if (cur.eof()) return false;
  const char c = cur.peek();
  if (c == '"') {
    std::string s;
    if (!parse_string(cur, s)) return false;
    out = std::move(s);
    return true;
  }
  if (cur.text.compare(cur.pos, 4, "true") == 0) {
    cur.pos += 4;
    out = true;
    return true;
  }
  if (cur.text.compare(cur.pos, 5, "false") == 0) {
    cur.pos += 5;
    out = false;
    return true;
  }
  if (cur.text.compare(cur.pos, 4, "null") == 0) {
    cur.pos += 4;
    out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  // Number: scan its extent, then prefer the narrowest faithful type.
  const std::size_t start = cur.pos;
  while (!cur.eof()) {
    const char d = cur.peek();
    if ((d >= '0' && d <= '9') || d == '-' || d == '+' || d == '.' || d == 'e' || d == 'E') {
      ++cur.pos;
    } else {
      break;
    }
  }
  const std::string_view token = cur.text.substr(start, cur.pos - start);
  if (token.empty()) return false;
  const bool integral = token.find_first_of(".eE") == std::string_view::npos;
  if (integral && token[0] != '-') {
    std::uint64_t u = 0;
    const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), u);
    if (ec == std::errc() && ptr == token.data() + token.size()) {
      out = u;
      return true;
    }
  }
  if (integral) {
    std::int64_t i = 0;
    const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), i);
    if (ec == std::errc() && ptr == token.data() + token.size()) {
      out = i;
      return true;
    }
  }
  double d = 0.0;
  const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), d);
  if (ec != std::errc() || ptr != token.data() + token.size()) return false;
  out = d;
  return true;
}

double number_of(const FieldValue& v) {
  if (const auto* d = std::get_if<double>(&v)) return *d;
  if (const auto* u = std::get_if<std::uint64_t>(&v)) return static_cast<double>(*u);
  if (const auto* i = std::get_if<std::int64_t>(&v)) return static_cast<double>(*i);
  return std::numeric_limits<double>::quiet_NaN();
}

}  // namespace

std::optional<TraceEvent> parse_jsonl_line(std::string_view line) {
  Cursor cur{line};
  if (!cur.consume('{')) return std::nullopt;
  TraceEvent event;
  cur.skip_ws();
  if (cur.consume('}')) return event;  // empty object
  while (true) {
    std::string key;
    if (!parse_string(cur, key)) return std::nullopt;
    if (!cur.consume(':')) return std::nullopt;
    FieldValue value;
    if (!parse_value(cur, value)) return std::nullopt;

    if (key == "t") {
      event.t = number_of(value);
    } else if (key == "seq") {
      event.seq = static_cast<std::uint64_t>(number_of(value));
    } else if (key == "sev") {
      const auto* s = std::get_if<std::string>(&value);
      if (s == nullptr) return std::nullopt;
      const auto sev = parse_severity(*s);
      if (!sev.has_value()) return std::nullopt;
      event.severity = *sev;
    } else if (key == "event") {
      const auto* s = std::get_if<std::string>(&value);
      if (s == nullptr) return std::nullopt;
      event.name = *s;
    } else {
      event.fields.emplace_back(std::move(key), std::move(value));
    }

    if (cur.consume('}')) break;
    if (!cur.consume(',')) return std::nullopt;
  }
  cur.skip_ws();
  if (!cur.eof()) return std::nullopt;  // trailing garbage
  return event;
}

// --- sinks ------------------------------------------------------------------

void JsonlStreamSink::write(const TraceEvent& event) { write_jsonl(os_, event); }

void JsonlStreamSink::flush() { os_.flush(); }

JsonlFileSink::JsonlFileSink(const std::string& path) : file_(path) {}

void JsonlFileSink::write(const TraceEvent& event) {
  if (file_) write_jsonl(file_, event);
}

void JsonlFileSink::flush() {
  if (file_) file_.flush();
}

}  // namespace jrsnd::obs

#include "fault/fault_plan.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>
#include <type_traits>

#include "common/rng.hpp"

namespace jrsnd::fault {

bool FaultPlan::active() const noexcept {
  return drop > 0.0 || duplicate > 0.0 || reorder > 0.0 || corrupt > 0.0 ||
         truncate > 0.0 || clock_skew_max > 0.0 || clock_drift_max > 0.0 ||
         !crashes.empty();
}

std::optional<std::string> FaultPlan::validate() const {
  auto prob = [](const char* name, double p) -> std::optional<std::string> {
    if (!(p >= 0.0 && p <= 1.0)) {
      return std::string(name) + " must be in [0, 1]";
    }
    return std::nullopt;
  };
  if (auto e = prob("drop", drop)) return e;
  if (auto e = prob("duplicate", duplicate)) return e;
  if (auto e = prob("reorder", reorder)) return e;
  if (auto e = prob("corrupt", corrupt)) return e;
  if (auto e = prob("truncate", truncate)) return e;
  if (!(clock_skew_max >= 0.0)) return "clock_skew_max must be >= 0";
  if (!(clock_drift_max >= 0.0 && clock_drift_max < 1.0)) {
    return "clock_drift_max must be in [0, 1)";
  }
  if (!(auto_tick >= 0.0)) return "auto_tick must be >= 0";
  if (corrupt > 0.0 && corrupt_bits == 0) {
    return "corrupt_bits must be > 0 when corrupt > 0";
  }
  for (const auto& c : crashes) {
    if (c.node == kInvalidNode) return "crash event needs a node";
    if (!(c.duration.seconds() > 0.0)) return "crash duration must be > 0";
    if (!(c.at.seconds() >= 0.0)) return "crash time must be >= 0";
  }
  return std::nullopt;
}

namespace {

// Minimal recursive-descent parser for the FaultPlan JSON schema: one flat
// object of numbers plus an optional "crashes" array of flat objects. Not a
// general JSON parser on purpose — unknown keys and other shapes are errors,
// which catches schema typos in plan files instead of silently ignoring them.
class PlanParser {
 public:
  PlanParser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool parse(FaultPlan& plan) {
    skip_ws();
    if (!expect('{')) return false;
    bool first = true;
    while (true) {
      skip_ws();
      if (peek() == '}') { ++pos_; break; }
      if (!first && !expect(',')) return false;
      first = false;
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      if (!parse_field(plan, key)) return false;
    }
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after plan");
    return true;
  }

 private:
  bool parse_field(FaultPlan& plan, const std::string& key) {
    if (key == "crashes") return parse_crashes(plan.crashes);
    if (key == "seed") return parse_number(plan.seed);
    if (key == "corrupt_bits") return parse_number(plan.corrupt_bits);
    double value = 0.0;
    if (!parse_number(value)) return false;
    if (key == "drop") plan.drop = value;
    else if (key == "duplicate") plan.duplicate = value;
    else if (key == "reorder") plan.reorder = value;
    else if (key == "corrupt") plan.corrupt = value;
    else if (key == "truncate") plan.truncate = value;
    else if (key == "clock_skew_max") plan.clock_skew_max = value;
    else if (key == "clock_drift_max") plan.clock_drift_max = value;
    else if (key == "auto_tick") plan.auto_tick = value;
    else return fail("unknown key \"" + key + "\"");
    return true;
  }

  bool parse_crashes(std::vector<CrashEvent>& out) {
    if (!expect('[')) return false;
    bool first = true;
    while (true) {
      skip_ws();
      if (peek() == ']') { ++pos_; return true; }
      if (!first && !expect(',')) return false;
      first = false;
      skip_ws();
      CrashEvent ev;
      if (!parse_crash(ev)) return false;
      out.push_back(ev);
    }
  }

  bool parse_crash(CrashEvent& ev) {
    if (!expect('{')) return false;
    bool first = true;
    bool have_node = false;
    while (true) {
      skip_ws();
      if (peek() == '}') { ++pos_; break; }
      if (!first && !expect(',')) return false;
      first = false;
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      if (key == "node") {
        std::uint32_t node = 0;
        if (!parse_number(node)) return false;
        ev.node = node_id(node);
        have_node = true;
        continue;
      }
      double value = 0.0;
      if (!parse_number(value)) return false;
      if (key == "at") ev.at = TimePoint(value);
      else if (key == "duration") ev.duration = Duration(value);
      else return fail("unknown crash key \"" + key + "\"");
    }
    if (!have_node) return fail("crash event needs a node");
    return true;
  }

  bool parse_string(std::string& out) {
    if (!expect('"')) return false;
    const auto start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') ++pos_;
    if (pos_ >= text_.size()) return fail("unterminated string");
    out.assign(text_.substr(start, pos_ - start));
    ++pos_;
    return true;
  }

  /// One number token into `out`'s type. Integer fields take only an
  /// in-range integer of their own width: "-1", "2.5", "1e3" and a seed
  /// past 2^64 are errors, not wrapped, truncated or rounded values.
  template <class T>
  bool parse_number(T& out) {
    const auto start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a number");
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, out);
    if (ec != std::errc{} || ptr != text_.data() + pos_) {
      return fail(std::is_integral_v<T> ? "expected an in-range unsigned integer"
                                        : "malformed number");
    }
    return true;
  }

  bool expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool fail(std::string message) {
    if (error_ && error_->empty()) {
      *error_ = std::move(message) + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

/// Shortest text that parses back to exactly `v` (to_json must round-trip).
void append_number(std::ostringstream& os, double v) {
  // Integral values print without a fractional part so to_json(from_json(x))
  // is stable for the common all-integer plans.
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    os << static_cast<long long>(v);
    return;
  }
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general);
  os.write(buf, end - buf);
}

}  // namespace

std::optional<FaultPlan> FaultPlan::from_json(std::string_view json,
                                              std::string* error) {
  FaultPlan plan;
  PlanParser parser(json, error);
  if (!parser.parse(plan)) return std::nullopt;
  if (auto invalid = plan.validate()) {
    if (error) *error = *invalid;
    return std::nullopt;
  }
  return plan;
}

std::string FaultPlan::to_json() const {
  std::ostringstream os;
  os << "{\"seed\":" << seed;
  os << ",\"drop\":"; append_number(os, drop);
  os << ",\"duplicate\":"; append_number(os, duplicate);
  os << ",\"reorder\":"; append_number(os, reorder);
  os << ",\"corrupt\":"; append_number(os, corrupt);
  os << ",\"corrupt_bits\":" << corrupt_bits;
  os << ",\"truncate\":"; append_number(os, truncate);
  os << ",\"clock_skew_max\":"; append_number(os, clock_skew_max);
  os << ",\"clock_drift_max\":"; append_number(os, clock_drift_max);
  os << ",\"auto_tick\":"; append_number(os, auto_tick);
  os << ",\"crashes\":[";
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    if (i) os << ',';
    os << "{\"node\":" << raw(crashes[i].node) << ",\"at\":";
    append_number(os, crashes[i].at.seconds());
    os << ",\"duration\":";
    append_number(os, crashes[i].duration.seconds());
    os << '}';
  }
  os << "]}";
  return os.str();
}

namespace {

/// Deterministic per-node unit draw in [0, 1): hash (seed, node, salt).
double unit_draw(std::uint64_t seed, NodeId node, std::uint64_t salt) noexcept {
  std::uint64_t state = seed ^ (0x9E3779B97F4A7C15ULL * (raw(node) + 1ULL)) ^ salt;
  const std::uint64_t x = splitmix64(state);
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

Duration ClockModel::skew(NodeId node) const noexcept {
  if (skew_max_ <= 0.0) return Duration{0.0};
  return Duration{skew_max_ * (2.0 * unit_draw(seed_, node, 0x5ceb) - 1.0)};
}

double ClockModel::rate(NodeId node) const noexcept {
  if (drift_max_ <= 0.0) return 1.0;
  return 1.0 + drift_max_ * (2.0 * unit_draw(seed_, node, 0xd21f7) - 1.0);
}

TimePoint ClockModel::local_time(NodeId node, TimePoint t) const noexcept {
  return TimePoint{t.seconds() * rate(node) + skew(node).seconds()};
}

}  // namespace jrsnd::fault

#include "pragma/parser.hpp"

#include <cctype>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace hpac::pragma {

namespace {

/// Minimal recursive-descent scanner over the clause text.
class Scanner {
 public:
  explicit Scanner(std::string_view text) : text_(text) {}

  void skip_space() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  bool at_end() {
    skip_space();
    return pos_ >= text_.size();
  }

  char peek() {
    skip_space();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool consume(char c) {
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  /// Identifier: [A-Za-z_][A-Za-z0-9_]*
  std::string ident() {
    skip_space();
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected identifier");
    return std::string(text_.substr(start, pos_ - start));
  }

  /// Raw text up to the matching close paren, handling nested brackets and
  /// parens (array sections like input[i*5:5:N] contain ':' and '[').
  std::string balanced_until_close() {
    skip_space();
    std::string out;
    int depth = 0;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '(' || c == '[') ++depth;
      if (c == ')' || c == ']') {
        if (c == ')' && depth == 0) return std::string(strings::trim(out));
        --depth;
        if (depth < 0) fail("unbalanced brackets");
      }
      out.push_back(c);
      ++pos_;
    }
    fail("unterminated clause argument");
    return {};
  }

  /// Numeric token for colon-separated argument lists.
  std::string number_token() {
    skip_space();
    std::size_t start = pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) || c == '.' || c == '-' || c == '+' ||
          c == 'e' || c == 'E' || c == 'f' || c == 'F') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected number");
    return std::string(text_.substr(start, pos_ - start));
  }

  [[noreturn]] void fail(const std::string& what) {
    throw ParseError(what + " at offset " + std::to_string(pos_) + " in \"" +
                     std::string(text_) + "\"");
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

int to_int(Scanner& s, const std::string& token, const char* what) {
  long long v = 0;
  if (!strings::parse_int(token, v)) s.fail(std::string("invalid integer for ") + what);
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max()) {
    s.fail(std::string(what) + " " + token + " is out of range");
  }
  return static_cast<int>(v);
}

double to_double(Scanner& s, const std::string& token, const char* what) {
  double v = 0;
  if (!strings::parse_double(token, v)) s.fail(std::string("invalid number for ") + what);
  return v;
}

void parse_memo(Scanner& s, ApproxSpec& spec) {
  if (spec.technique != Technique::kNone) s.fail("multiple techniques in one directive");
  s.expect('(');
  const std::string kind = strings::to_lower(s.ident());
  s.expect(':');
  if (kind == "out") {
    TafParams taf;
    taf.history_size = to_int(s, s.number_token(), "TAF history size");
    s.expect(':');
    taf.prediction_size = to_int(s, s.number_token(), "TAF prediction size");
    s.expect(':');
    taf.rsd_threshold = to_double(s, s.number_token(), "TAF RSD threshold");
    spec.technique = Technique::kTafMemo;
    spec.taf = taf;
  } else if (kind == "in") {
    IactParams iact;
    iact.table_size = to_int(s, s.number_token(), "iACT table size");
    s.expect(':');
    iact.threshold = to_double(s, s.number_token(), "iACT threshold");
    if (s.consume(':')) {
      iact.tables_per_warp = to_int(s, s.number_token(), "tables per warp");
    }
    spec.technique = Technique::kIactMemo;
    spec.iact = iact;
  } else {
    s.fail("memo kind must be 'in' or 'out'");
  }
  s.expect(')');
}

void parse_perfo(Scanner& s, ApproxSpec& spec) {
  if (spec.technique != Technique::kNone) s.fail("multiple techniques in one directive");
  s.expect('(');
  const std::string kind = strings::to_lower(s.ident());
  s.expect(':');
  PerfoParams perfo;
  if (kind == "small" || kind == "large") {
    perfo.kind = kind == "small" ? PerfoKind::kSmall : PerfoKind::kLarge;
    perfo.stride = to_int(s, s.number_token(), "perforation stride");
  } else if (kind == "ini" || kind == "fini") {
    perfo.kind = kind == "ini" ? PerfoKind::kIni : PerfoKind::kFini;
    perfo.fraction = to_double(s, s.number_token(), "perforation fraction");
  } else {
    s.fail("perfo kind must be small, large, ini or fini");
  }
  s.expect(')');
  spec.technique = Technique::kPerforation;
  spec.perfo = perfo;
}

void parse_level(Scanner& s, ApproxSpec& spec) {
  s.expect('(');
  const std::string level = strings::to_lower(s.ident());
  s.expect(')');
  if (level == "thread") {
    spec.level = HierarchyLevel::kThread;
  } else if (level == "warp") {
    spec.level = HierarchyLevel::kWarp;
  } else if (level == "team" || level == "block") {
    spec.level = HierarchyLevel::kBlock;
  } else {
    s.fail("level must be thread, warp or team");
  }
}

}  // namespace

ApproxSpec parse_approx(std::string_view text) {
  // Tolerate the full pragma line: strip an optional leading
  // "#pragma approx" so code can pass the directive verbatim.
  std::string_view body = strings::trim(text);
  for (std::string_view prefix : {std::string_view("#pragma"), std::string_view("approx")}) {
    std::string_view trimmed = strings::trim(body);
    if (trimmed.substr(0, prefix.size()) == prefix) {
      body = trimmed.substr(prefix.size());
    } else {
      body = trimmed;
    }
  }

  Scanner s(body);
  ApproxSpec spec;
  while (!s.at_end()) {
    const std::string clause = strings::to_lower(s.ident());
    if (clause == "memo") {
      parse_memo(s, spec);
    } else if (clause == "perfo") {
      parse_perfo(s, spec);
    } else if (clause == "level") {
      parse_level(s, spec);
    } else if (clause == "herded") {
      bool value = true;
      if (s.consume('(')) {
        value = to_int(s, s.number_token(), "herded flag") != 0;
        s.expect(')');
      }
      if (!spec.perfo) s.fail("herded(...) must follow a perfo(...) clause");
      spec.perfo->herded = value;
    } else if (clause == "in") {
      s.expect('(');
      spec.in_sections.push_back(s.balanced_until_close());
      s.expect(')');
    } else if (clause == "out") {
      s.expect('(');
      spec.out_sections.push_back(s.balanced_until_close());
      s.expect(')');
    } else if (clause == "replacement") {
      s.expect('(');
      const std::string policy = strings::to_lower(s.ident());
      s.expect(')');
      if (!spec.iact) s.fail("replacement(...) must follow a memo(in:...) clause");
      if (policy == "clock") {
        spec.iact->clock_replacement = true;
      } else if (policy == "rr" || policy == "roundrobin" || policy == "round_robin") {
        spec.iact->clock_replacement = false;
      } else {
        s.fail("replacement must be rr or clock");
      }
    } else if (clause == "label") {
      s.expect('(');
      spec.label = s.balanced_until_close();
      s.expect(')');
    } else if (clause == "none") {
      // explicit accurate-only directive; nothing to record
    } else {
      s.fail("unknown clause '" + clause + "'");
    }
  }
  spec.validate();
  return spec;
}

}  // namespace hpac::pragma

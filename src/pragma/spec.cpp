#include "pragma/spec.hpp"

#include <charconv>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace hpac::pragma {

std::string technique_name(Technique t) {
  switch (t) {
    case Technique::kNone: return "none";
    case Technique::kTafMemo: return "taf";
    case Technique::kIactMemo: return "iact";
    case Technique::kPerforation: return "perfo";
  }
  return "unknown";
}

std::string hierarchy_name(HierarchyLevel level) {
  switch (level) {
    case HierarchyLevel::kThread: return "thread";
    case HierarchyLevel::kWarp: return "warp";
    case HierarchyLevel::kBlock: return "block";
  }
  return "unknown";
}

Technique technique_from_name(const std::string& name) {
  if (name == "none") return Technique::kNone;
  if (name == "taf") return Technique::kTafMemo;
  if (name == "iact") return Technique::kIactMemo;
  if (name == "perfo") return Technique::kPerforation;
  throw ParseError("unknown technique name: " + name);
}

HierarchyLevel hierarchy_from_name(const std::string& name) {
  if (name == "thread") return HierarchyLevel::kThread;
  if (name == "warp") return HierarchyLevel::kWarp;
  if (name == "block") return HierarchyLevel::kBlock;
  throw ParseError("unknown hierarchy name: " + name);
}

std::string perfo_kind_name(PerfoKind kind) {
  switch (kind) {
    case PerfoKind::kSmall: return "small";
    case PerfoKind::kLarge: return "large";
    case PerfoKind::kIni: return "ini";
    case PerfoKind::kFini: return "fini";
  }
  return "unknown";
}

void ApproxSpec::validate() const {
  const int selected = (taf ? 1 : 0) + (iact ? 1 : 0) + (perfo ? 1 : 0);
  if (technique == Technique::kNone) {
    if (selected != 0) throw ParseError("technique is none but parameters are present");
    if (level != HierarchyLevel::kThread) {
      throw ParseError("level(...) applies to memoization activation, not accurate runs");
    }
    return;
  }
  if (selected != 1) {
    throw ParseError("exactly one approximation technique must be specified");
  }
  switch (technique) {
    case Technique::kTafMemo: {
      if (!taf) throw ParseError("memo(out) directive lacks TAF parameters");
      if (taf->history_size < 1) throw ParseError("TAF history size must be >= 1");
      if (taf->prediction_size < 1) throw ParseError("TAF prediction size must be >= 1");
      if (taf->rsd_threshold < 0) throw ParseError("TAF RSD threshold must be >= 0");
      break;
    }
    case Technique::kIactMemo: {
      if (!iact) throw ParseError("memo(in) directive lacks iACT parameters");
      if (iact->table_size < 1) throw ParseError("iACT table size must be >= 1");
      if (iact->threshold < 0) throw ParseError("iACT threshold must be >= 0");
      if (iact->tables_per_warp < 0) throw ParseError("tables per warp must be >= 0");
      if (in_sections.empty()) {
        throw ParseError("memo(in) requires an in(...) clause declaring region inputs");
      }
      break;
    }
    case Technique::kPerforation: {
      if (!perfo) throw ParseError("perfo directive lacks parameters");
      if (perfo->kind == PerfoKind::kSmall || perfo->kind == PerfoKind::kLarge) {
        if (perfo->stride < 2) throw ParseError("perforation stride must be >= 2");
      } else {
        if (!(perfo->fraction > 0.0 && perfo->fraction < 1.0)) {
          throw ParseError("ini/fini perforation fraction must lie in (0,1)");
        }
      }
      if (level != HierarchyLevel::kThread) {
        throw ParseError("level(...) applies to memoization activation, not perforation");
      }
      break;
    }
    case Technique::kNone: break;  // handled above
  }
}

namespace {

/// A double at the smallest %g precision >= 6 that parse_double reads back
/// identical: unchanged from ostream's default wherever that already
/// round-trips, and locale-independent through to_chars.
std::string format_param(double value) {
  char buf[32];
  for (int precision = 6;; ++precision) {
    const auto end =
        std::to_chars(buf, buf + sizeof buf, value, std::chars_format::general, precision).ptr;
    std::string text(buf, end);
    double back = 0;
    if (precision >= 17 || (strings::parse_double(text, back) && back == value)) return text;
  }
}

}  // namespace

std::string ApproxSpec::to_string() const {
  std::ostringstream os;
  switch (technique) {
    case Technique::kNone:
      os << "none";
      break;
    case Technique::kTafMemo:
      os << "memo(out:" << taf->history_size << ":" << taf->prediction_size << ":"
         << format_param(taf->rsd_threshold) << ")";
      break;
    case Technique::kIactMemo:
      os << "memo(in:" << iact->table_size << ":" << format_param(iact->threshold);
      if (iact->tables_per_warp > 0) os << ":" << iact->tables_per_warp;
      os << ")";
      if (iact->clock_replacement) os << " replacement(clock)";
      break;
    case Technique::kPerforation:
      os << "perfo(" << perfo_kind_name(perfo->kind) << ":";
      if (perfo->kind == PerfoKind::kSmall || perfo->kind == PerfoKind::kLarge) {
        os << perfo->stride;
      } else {
        os << format_param(perfo->fraction);
      }
      os << ")";
      if (!perfo->herded) os << " herded(0)";
      break;
  }
  if (technique != Technique::kPerforation && technique != Technique::kNone &&
      level != HierarchyLevel::kThread) {
    os << " level(" << hierarchy_name(level) << ")";
  }
  for (const auto& section : in_sections) os << " in(" << section << ")";
  for (const auto& section : out_sections) os << " out(" << section << ")";
  if (!label.empty()) os << " label(" << label << ")";
  return os.str();
}

}  // namespace hpac::pragma

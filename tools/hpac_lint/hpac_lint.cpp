// hpac_lint — checker for repo-specific invariants no compiler knows.
//
// Rules:
//   independent-items-extents  every app binding that declares
//                              `independent_items = true` must also declare
//                              commit extents (`<var>.commit_extents`) so
//                              the audit layer can verify the independence
//                              claim.
//   banned-function            no rand()/time()/locale-dependent parsing
//                              (strtod, atoi, sscanf, ...) anywhere in src/:
//                              results must be reproducible and checkpoint
//                              parsing locale-proof.
//   raw-thread                 no raw std::thread construction outside the
//                              scheduler, the server's thread-per-connection
//                              registry and the dist-campaign heartbeat —
//                              everything else must fan out through
//                              hpac::Scheduler so parallelism composes.
//   lease-record-bound         lease_journal.cpp must keep its
//                              static_assert(kMaxRecordBytes < PIPE_BUF)
//                              and the append-path runtime bound, the pair
//                              that makes atomic-append records untearable.
//   simd-isolation             x86 vector intrinsics (_mm_*, __m128, ...)
//                              may appear only in the per-ISA kernel TUs and
//                              the dispatch shim. Everywhere else calls
//                              through dispatched function pointers, so the
//                              scalar build stays the bit-identity reference
//                              and -mavx2 never leaks past its own TU.
//
// A finding on a given line is suppressed by a trailing
// `// hpac-lint: allow(<rule>)` comment naming the rule.
//
// Input selection is compile_commands-driven: pass the build tree's
// compile_commands.json and every first-party .cpp it lists under
// <root>/src is scanned (headers under src/ are always walked). Without
// it, src/ is walked for both. `--expect-all-rules` inverts the exit
// logic for the seeded-violation fixture: success means every rule fired.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

bool is_word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Does `line` contain `token` preceded by a non-word character (or line
/// start)? Occurrences inside line comments are already stripped by the
/// caller.
bool has_bounded_token(const std::string& line, const std::string& token) {
  std::size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    if (pos == 0 || !is_word_char(line[pos - 1])) return true;
    pos += 1;
  }
  return false;
}

/// The line with any // comment removed — except that the allow() marker
/// is extracted first, so suppressions live in the stripped part.
std::string strip_line_comment(const std::string& line) {
  const std::size_t pos = line.find("//");
  return pos == std::string::npos ? line : line.substr(0, pos);
}

bool line_allows(const std::string& raw_line, const std::string& rule) {
  return raw_line.find("hpac-lint: allow(" + rule + ")") != std::string::npos;
}

std::vector<std::string> read_lines(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lines.push_back(line);
  }
  return lines;
}

bool path_ends_with(const std::string& path, const std::string& suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// --- rule: banned-function ---------------------------------------------------

const std::vector<std::string>& banned_tokens() {
  static const std::vector<std::string> tokens = {
      "rand(",   "srand(",  "time(",      "strtod(", "strtof(",  "strtol(",
      "atof(",   "atoi(",   "atol(",      "sscanf(", "setlocale(",
      "stod(",   "stof(",
  };
  return tokens;
}

void check_banned_functions(const std::string& file,
                            const std::vector<std::string>& lines,
                            std::vector<Finding>& findings) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (line_allows(lines[i], "banned-function")) continue;
    const std::string code = strip_line_comment(lines[i]);
    for (const std::string& token : banned_tokens()) {
      if (has_bounded_token(code, token)) {
        findings.push_back({file, i + 1, "banned-function",
                            "call to " + token.substr(0, token.size() - 1) +
                                "() — non-reproducible or locale-dependent; use "
                                "common/rng.hpp or strings::parse_*"});
      }
    }
  }
}

// --- rule: raw-thread --------------------------------------------------------

bool thread_allowlisted(const std::string& file) {
  static const std::vector<std::string> allowed = {
      "common/scheduler.hpp",    "common/scheduler.cpp", "service/server.hpp",
      "service/server.cpp",      "harness/dist_campaign.hpp",
      "harness/dist_campaign.cpp",
  };
  for (const std::string& suffix : allowed) {
    if (path_ends_with(file, suffix)) return true;
  }
  return false;
}

void check_raw_threads(const std::string& file, const std::vector<std::string>& lines,
                       std::vector<Finding>& findings) {
  if (thread_allowlisted(file)) return;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (line_allows(lines[i], "raw-thread")) continue;
    const std::string code = strip_line_comment(lines[i]);
    for (const std::string& token : {std::string("std::thread"), std::string("std::jthread")}) {
      std::size_t pos = 0;
      while ((pos = code.find(token, pos)) != std::string::npos) {
        std::size_t after = pos + token.size();
        if (after < code.size() && is_word_char(code[after])) {  // std::threads_...
          pos = after;
          continue;
        }
        while (after < code.size() &&
               std::isspace(static_cast<unsigned char>(code[after]))) {
          ++after;
        }
        // Static member access (std::thread::hardware_concurrency) reads
        // platform facts; only *owning* a thread is restricted.
        if (after + 1 < code.size() && code[after] == ':' && code[after + 1] == ':') {
          pos = after;
          continue;
        }
        findings.push_back({file, i + 1, "raw-thread",
                            "raw " + token +
                                " outside the scheduler/server/heartbeat "
                                "allowlist; fan out via hpac::Scheduler"});
        pos = after;
      }
    }
  }
}

// --- rule: simd-isolation ----------------------------------------------------

bool simd_allowlisted(const std::string& file) {
  // The shim (level probing) plus the two AVX2 TUs that CMake compiles
  // with -mavx2, where the kernels are written directly on `__m256d`.
  // No kernel header is listed: an intrinsic in a header could be
  // included into a baseline-ISA TU, such as the dispatchers in iact.cpp
  // and simd_kernels.cpp, and put VEX code on a non-AVX2 host's path.
  static const std::vector<std::string> allowed = {
      "common/simd.hpp",
      "common/simd.cpp",
      "approx/iact_scan_avx2.cpp",
      "apps/app_kernels_avx2.cpp",
  };
  for (const std::string& suffix : allowed) {
    if (path_ends_with(file, suffix)) return true;
  }
  return false;
}

void check_simd_isolation(const std::string& file, const std::vector<std::string>& lines,
                          std::vector<Finding>& findings) {
  if (simd_allowlisted(file)) return;
  static const std::vector<std::string> tokens = {
      "_mm_",        "_mm256_",     "__m128",
      "__m256",      "immintrin.h", "emmintrin.h",
      "xmmintrin.h",
  };
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (line_allows(lines[i], "simd-isolation")) continue;
    const std::string code = strip_line_comment(lines[i]);
    for (const std::string& token : tokens) {
      if (has_bounded_token(code, token)) {
        findings.push_back({file, i + 1, "simd-isolation",
                            "x86 intrinsic '" + token +
                                "' outside the per-ISA kernel TUs; call through "
                                "the hpac::simd dispatch layer instead"});
        break;  // one finding per line is enough
      }
    }
  }
}

// --- rule: independent-items-extents ----------------------------------------

void check_independent_items(const std::string& file,
                             const std::vector<std::string>& lines,
                             std::vector<Finding>& findings) {
  if (file.find("/apps/") == std::string::npos || !path_ends_with(file, ".cpp")) {
    return;
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (line_allows(lines[i], "independent-items-extents")) continue;
    const std::string code = strip_line_comment(lines[i]);
    const std::size_t pos = code.find(".independent_items");
    if (pos == std::string::npos) continue;
    // Require `<var>.independent_items = true` (not a comment mention).
    std::size_t var_begin = pos;
    while (var_begin > 0 && is_word_char(code[var_begin - 1])) --var_begin;
    const std::string var = code.substr(var_begin, pos - var_begin);
    const std::size_t eq = code.find('=', pos);
    if (var.empty() || eq == std::string::npos ||
        code.find("true", eq) == std::string::npos) {
      continue;
    }
    // The matching `<var>.commit_extents` declaration must follow nearby.
    constexpr std::size_t kWindow = 20;
    bool declared = false;
    for (std::size_t j = i + 1; j < lines.size() && j <= i + kWindow; ++j) {
      const std::string nearby = strip_line_comment(lines[j]);
      if (nearby.find(var + ".commit_extents") != std::string::npos) {
        declared = true;
        break;
      }
    }
    if (!declared) {
      findings.push_back({file, i + 1, "independent-items-extents",
                          "binding '" + var +
                              "' declares independent_items but no "
                              "commit_extents — the audit layer cannot check "
                              "the independence claim"});
    }
  }
}

// --- rule: lease-record-bound ------------------------------------------------

void check_lease_record_bound(const std::string& file,
                              const std::vector<std::string>& lines,
                              std::vector<Finding>& findings) {
  if (!path_ends_with(file, "harness/lease_journal.cpp")) return;
  bool has_static_assert = false;
  bool has_runtime_bound = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find("static_assert") != std::string::npos &&
        lines[i].find("PIPE_BUF") != std::string::npos) {
      has_static_assert = true;
    }
    if (lines[i].find("::append_record(") != std::string::npos) {
      constexpr std::size_t kWindow = 30;
      for (std::size_t j = i; j < lines.size() && j <= i + kWindow; ++j) {
        if (lines[j].find("kMaxRecordBytes") != std::string::npos) {
          has_runtime_bound = true;
          break;
        }
      }
    }
  }
  if (!has_static_assert) {
    findings.push_back({file, 1, "lease-record-bound",
                        "missing static_assert(kMaxRecordBytes < PIPE_BUF) — "
                        "atomic-append records must provably fit one write(2)"});
  }
  if (!has_runtime_bound) {
    findings.push_back({file, 1, "lease-record-bound",
                        "append_record lacks the kMaxRecordBytes runtime "
                        "check guarding the PIPE_BUF atomicity window"});
  }
}

// --- input selection ---------------------------------------------------------

/// Minimal extraction of "file" entries from compile_commands.json: finds
/// every `"file": "<path>"` pair, handling the \\ and \" escapes CMake
/// emits. No general JSON parser needed for that shape.
std::vector<std::string> compile_commands_files(const fs::path& json_path) {
  std::ifstream in(json_path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  std::vector<std::string> files;
  const std::string key = "\"file\"";
  std::size_t pos = 0;
  while ((pos = text.find(key, pos)) != std::string::npos) {
    pos += key.size();
    pos = text.find('"', text.find(':', pos));
    if (pos == std::string::npos) break;
    std::string value;
    for (++pos; pos < text.size() && text[pos] != '"'; ++pos) {
      if (text[pos] == '\\' && pos + 1 < text.size()) ++pos;
      value.push_back(text[pos]);
    }
    files.push_back(value);
  }
  return files;
}

std::vector<std::string> collect_inputs(const fs::path& root,
                                        const fs::path& compile_commands) {
  const fs::path src = root / "src";
  std::set<std::string> inputs;
  const auto canonical_src = fs::weakly_canonical(src).string();
  if (!compile_commands.empty()) {
    for (const std::string& file : compile_commands_files(compile_commands)) {
      const std::string resolved = fs::weakly_canonical(fs::path(file)).string();
      if (resolved.rfind(canonical_src, 0) == 0) inputs.insert(resolved);
    }
  }
  if (fs::is_directory(src)) {
    for (const auto& entry : fs::recursive_directory_iterator(src)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".hpp" || (compile_commands.empty() && ext == ".cpp")) {
        inputs.insert(fs::weakly_canonical(entry.path()).string());
      }
    }
  }
  return {inputs.begin(), inputs.end()};
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root;
  fs::path compile_commands;
  bool expect_all_rules = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--compile-commands" && i + 1 < argc) {
      compile_commands = argv[++i];
    } else if (arg == "--expect-all-rules") {
      expect_all_rules = true;
    } else {
      std::fprintf(stderr,
                   "usage: hpac_lint --root DIR [--compile-commands FILE] "
                   "[--expect-all-rules]\n");
      return 2;
    }
  }
  if (root.empty() || !fs::is_directory(root / "src")) {
    std::fprintf(stderr, "hpac_lint: --root must name a directory with src/\n");
    return 2;
  }
  if (!compile_commands.empty() && !fs::is_regular_file(compile_commands)) {
    std::fprintf(stderr, "hpac_lint: no compile_commands.json at %s\n",
                 compile_commands.string().c_str());
    return 2;
  }

  const std::vector<std::string> inputs = collect_inputs(root, compile_commands);
  if (inputs.empty()) {
    std::fprintf(stderr, "hpac_lint: nothing to scan under %s/src\n",
                 root.string().c_str());
    return 2;
  }

  std::vector<Finding> findings;
  for (const std::string& file : inputs) {
    const std::vector<std::string> lines = read_lines(file);
    check_banned_functions(file, lines, findings);
    check_raw_threads(file, lines, findings);
    check_simd_isolation(file, lines, findings);
    check_independent_items(file, lines, findings);
    check_lease_record_bound(file, lines, findings);
  }

  for (const Finding& finding : findings) {
    std::printf("%s:%zu: [%s] %s\n", finding.file.c_str(), finding.line,
                finding.rule.c_str(), finding.message.c_str());
  }

  if (expect_all_rules) {
    // Fixture self-test: the seeded violations must trip EVERY rule, so a
    // rule that silently stopped matching cannot gate anything.
    const std::vector<std::string> rules = {
        "independent-items-extents", "banned-function", "raw-thread",
        "lease-record-bound", "simd-isolation"};
    bool all_fired = true;
    for (const std::string& rule : rules) {
      const bool fired =
          std::any_of(findings.begin(), findings.end(),
                      [&rule](const Finding& f) { return f.rule == rule; });
      if (!fired) {
        std::fprintf(stderr, "hpac_lint: self-test rule never fired: %s\n",
                     rule.c_str());
        all_fired = false;
      }
    }
    std::printf("hpac_lint: self-test %s (%zu findings)\n",
                all_fired ? "ok" : "FAILED", findings.size());
    return all_fired ? 0 : 1;
  }

  if (!findings.empty()) {
    std::fprintf(stderr, "hpac_lint: %zu violation(s) in %zu file(s) scanned\n",
                 findings.size(), inputs.size());
    return 1;
  }
  std::printf("hpac_lint: clean (%zu files scanned)\n", inputs.size());
  return 0;
}

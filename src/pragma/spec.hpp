#pragma once

#include <optional>
#include <string>
#include <vector>

namespace hpac::pragma {

/// Which approximation technique an `approx` directive selects.
enum class Technique {
  kNone,         ///< no approximation: accurate path only (baseline runs)
  kTafMemo,      ///< output memoization, `memo(out:...)` (TAF, paper §3.1.3)
  kIactMemo,     ///< input memoization, `memo(in:...)` (iACT, paper §3.1.4)
  kPerforation,  ///< loop perforation, `perfo(...)` (paper §3.1.5)
};

/// `level(...)` clause values (paper §3.2). `team` is accepted as a synonym
/// for block, matching the OpenMP teams terminology the paper uses.
enum class HierarchyLevel {
  kThread,  ///< each thread decides independently (default; CPU-HPAC behavior)
  kWarp,    ///< majority ballot across the warp
  kBlock,   ///< majority across the whole thread block (two-phase tally)
};

/// Perforation patterns (paper §2.3): `small` skips one of every M
/// iterations, `large` executes one of every M, `ini`/`fini` drop a
/// fraction of the first/last iterations.
enum class PerfoKind { kSmall, kLarge, kIni, kFini };

/// Parameters of `memo(out: hSize : pSize : rsdThreshold)`.
struct TafParams {
  int history_size = 3;       ///< hSize: sliding window length
  int prediction_size = 8;    ///< pSize: approximations per stable regime
  double rsd_threshold = 0.5; ///< activation when window RSD falls below

  bool operator==(const TafParams&) const = default;
};

/// Parameters of `memo(in: tSize : threshold [: tablesPerWarp])`.
struct IactParams {
  int table_size = 4;        ///< entries per memoization table
  double threshold = 0.5;    ///< Euclidean-distance activation threshold
  int tables_per_warp = 0;   ///< 0 = default = warp size (private tables)
  /// `replacement(clock)` selects CLOCK eviction instead of the default
  /// round-robin (the paper implemented both and found no effect —
  /// footnote 3; `hpac_repro`'s `fn3.clock_no_effect` claim scores that).
  bool clock_replacement = false;

  bool operator==(const IactParams&) const = default;
};

/// Parameters of `perfo(kind : value)`.
struct PerfoParams {
  PerfoKind kind = PerfoKind::kSmall;
  int stride = 2;          ///< M for small/large
  double fraction = 0.0;   ///< dropped fraction for ini/fini, in (0,1)
  /// GPU-herded perforation (paper §3.1.5): drop the same grid-stride
  /// steps in every thread, keeping warp control flow uniform. Defaults to
  /// on; `herded(0)` restores the CPU per-iteration pattern for ablations.
  bool herded = true;

  bool operator==(const PerfoParams&) const = default;
};

/// A parsed and validated `#pragma approx ...` directive.
struct ApproxSpec {
  Technique technique = Technique::kNone;
  HierarchyLevel level = HierarchyLevel::kThread;
  std::optional<TafParams> taf;
  std::optional<IactParams> iact;
  std::optional<PerfoParams> perfo;
  /// Raw `in(...)` / `out(...)` array sections, kept for diagnostics and
  /// for checking technique requirements (TAF needs out; iACT needs both).
  std::vector<std::string> in_sections;
  std::vector<std::string> out_sections;
  /// Optional `label(...)` used as the key in the harness result database.
  std::string label;

  /// Throws hpac::ParseError when clauses are inconsistent (e.g. both memo
  /// kinds, perfo together with memo, missing required parameters).
  void validate() const;

  /// Canonical single-line clause text (parse(to_string(s)) == s): doubles
  /// print at the smallest %g precision >= 6 that reads back identical.
  std::string to_string() const;

  bool operator==(const ApproxSpec&) const = default;
};

/// Human-readable names used across tables, CSV output and tests.
std::string technique_name(Technique t);
std::string hierarchy_name(HierarchyLevel level);
std::string perfo_kind_name(PerfoKind kind);

/// Inverse lookups, used when rehydrating persisted result databases.
/// Throw hpac::ParseError for names no *_name overload produces.
Technique technique_from_name(const std::string& name);
HierarchyLevel hierarchy_from_name(const std::string& name);

}  // namespace hpac::pragma

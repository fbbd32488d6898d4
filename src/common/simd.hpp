#pragma once

#include <cstdint>

namespace hpac::simd {

/// Host vector-ISA dispatch level of the SIMD fast paths in the engine and
/// the apps' accurate kernels: AVX2 where the build compiled it and the CPU
/// reports it, the scalar reference everywhere else (non-AVX2 x86 hosts
/// included).
///
/// Every SIMD kernel in the tree is *bit-identical* to its scalar
/// reference: vectorization always runs across independent lanes (table
/// rows, option contracts, tree nodes) with each lane performing exactly
/// the scalar operation sequence, never by reassociating a single lane's
/// floating-point reduction. That is what lets the dispatch level be a
/// pure execution knob — sweep CSVs are byte-identical at every level —
/// instead of a semantics knob, and it is enforced by the `simd`-labeled
/// tests and the CI dispatch matrix.
///
/// Ordering is meaningful: kAvx2 is the wider level, and it is usable only
/// when both the build compiled it and the CPU reports it.
enum class Level : std::uint8_t {
  kOff = 0,   ///< scalar reference paths only
  kAvx2 = 1,  ///< 256-bit lanes (separate TUs, runtime cpuid-gated)
};

/// Short lowercase name ("off", "avx2") — the spelling accepted by the
/// HPAC_SIMD environment override and printed by diagnostics.
const char* level_name(Level level);

/// Widest level this binary contains kernels for (compile-time fact).
Level max_compiled_level();

/// Widest level the running CPU supports among the compiled ones.
Level max_runtime_level();

/// The level SIMD-aware call sites dispatch on. Resolution order:
///   1. `HPAC_SIMD=off|avx2` environment override (`0` and `scalar` also
///      mean off), clamped to `max_runtime_level()` (asking for AVX2 on a
///      host without it runs the scalar reference rather than crashing);
///   2. otherwise `max_runtime_level()`.
/// Resolved once at first use; `set_level()` changes it afterwards.
Level active_level();

/// Override the active level (clamped to `max_runtime_level()`); returns
/// the level actually installed. Tests and benches use this to compare
/// dispatch levels in-process. Kernel choices are made per call or per
/// object construction, so the new level applies to work started after
/// the call, not to objects that cached a kernel earlier.
Level set_level(Level level);

/// Everything a diagnostic line needs about the dispatch decision.
struct DispatchInfo {
  Level active = Level::kOff;
  Level max_runtime = Level::kOff;
  Level max_compiled = Level::kOff;
  bool env_override = false;  ///< HPAC_SIMD was set and parsed
};
DispatchInfo dispatch_info();

}  // namespace hpac::simd

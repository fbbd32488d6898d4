#include "common/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <string_view>

namespace hpac::simd {

namespace {

Level compiled_level() {
#if defined(HPAC_SIMD_COMPILED_AVX2) && (defined(__x86_64__) || defined(_M_X64))
  return Level::kAvx2;
#else
  return Level::kOff;
#endif
}

Level runtime_level() {
#if defined(HPAC_SIMD_COMPILED_AVX2) && defined(__GNUC__) && \
    (defined(__x86_64__) || defined(_M_X64))
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
  return Level::kOff;
}

Level clamp_to_runtime(Level level) {
  const Level ceiling = runtime_level();
  return level < ceiling ? level : ceiling;
}

struct Resolution {
  Level level = Level::kOff;
  bool env_override = false;
};

/// One-time HPAC_SIMD resolution. Unknown spellings are ignored (the
/// default wins) rather than fatal: the override is a perf knob, and a
/// typo silently running the default is caught by the diagnostics the
/// CLIs print, while a crash would take the whole sweep down.
Resolution resolve_from_env() {
  Resolution r;
  r.level = runtime_level();
  const char* env = std::getenv("HPAC_SIMD");
  if (env == nullptr) return r;
  const std::string_view text(env);
  if (text == "off" || text == "0" || text == "scalar") {
    r.level = Level::kOff;
    r.env_override = true;
  } else if (text == "avx2") {
    r.level = clamp_to_runtime(Level::kAvx2);
    r.env_override = true;
  }
  return r;
}

const Resolution& startup_resolution() {
  static const Resolution resolution = resolve_from_env();
  return resolution;
}

std::atomic<Level>& active_slot() {
  static std::atomic<Level> slot{startup_resolution().level};
  return slot;
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kAvx2:
      return "avx2";
    case Level::kOff:
      break;
  }
  return "off";
}

Level max_compiled_level() { return compiled_level(); }

Level max_runtime_level() { return runtime_level(); }

Level active_level() { return active_slot().load(std::memory_order_relaxed); }

Level set_level(Level level) {
  const Level installed = clamp_to_runtime(level);
  active_slot().store(installed, std::memory_order_relaxed);
  return installed;
}

DispatchInfo dispatch_info() {
  DispatchInfo info;
  info.active = active_level();
  info.max_runtime = runtime_level();
  info.max_compiled = compiled_level();
  info.env_override = startup_resolution().env_override;
  return info;
}

}  // namespace hpac::simd

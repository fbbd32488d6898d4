#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/device.hpp"

namespace hpac::sim {

/// Block-scoped shared-memory arena.
///
/// HPAC-Offload's central memory decision (paper §3.1.1) is to keep all AC
/// state in the block's shared memory: the state is sized by *resident*
/// threads rather than the kernel's total threads and lives only for the
/// kernel's lifetime. This arena models that: allocation is bump-style,
/// capacity is the device's shared-memory-per-block limit, and `reset()`
/// (called at kernel end) destroys the contents, matching the paper's
/// "once the kernel completes, the internal data are destroyed".
///
/// Functionally the storage is host memory; the value of the class is the
/// exact capacity accounting (a configuration whose AC state cannot fit in
/// shared memory must fail, and occupancy depends on bytes used).
class SharedMemoryArena {
 public:
  explicit SharedMemoryArena(const DeviceConfig& dev);

  /// Allocate `count` doubles aligned storage; throws hpac::ConfigError if
  /// the block's shared-memory budget would be exceeded.
  std::span<double> alloc_doubles(std::size_t count);
  /// Allocate `count` 32-bit ints.
  std::span<std::int32_t> alloc_ints(std::size_t count);

  /// Bytes currently allocated in this block's shared memory.
  std::size_t bytes_used() const { return bytes_used_; }
  /// Largest allocation footprint seen since construction (across resets).
  std::size_t peak_bytes() const { return peak_bytes_; }
  std::size_t capacity() const { return capacity_; }

  /// Kernel completed: contents are destroyed, budget is returned.
  void reset();

 private:
  void charge(std::size_t bytes);

  std::size_t capacity_;
  std::size_t bytes_used_ = 0;
  std::size_t peak_bytes_ = 0;
  // Deques of chunks would avoid invalidation; we use stable per-allocation
  // vectors so spans stay valid until reset().
  std::vector<std::vector<double>> double_chunks_;
  std::vector<std::vector<std::int32_t>> int_chunks_;
};

}  // namespace hpac::sim

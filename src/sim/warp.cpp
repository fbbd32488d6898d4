#include "sim/warp.hpp"

namespace hpac::sim {

void WarpLedger::charge_paths(std::span<const double> path_cycles) {
  int taken = 0;
  for (double cycles : path_cycles) {
    if (cycles > 0.0) {
      compute_cycles_ += cycles;
      ++taken;
    }
  }
  if (taken > 1) ++divergent_regions_;
}

void WarpLedger::charge_compute(double cycles) { compute_cycles_ += cycles; }

void WarpLedger::charge_memory(std::uint32_t transactions, std::uint32_t rounds) {
  transactions_ += transactions;
  memory_rounds_ += rounds;
}

void WarpLedger::charge_shared(std::uint32_t accesses, double cycles_per_access) {
  compute_cycles_ += accesses * cycles_per_access;
}

void WarpLedger::charge_barrier(double cycles) { compute_cycles_ += cycles; }

}  // namespace hpac::sim

// Allocation counts of the calling thread.
//
// perfbench_traced links alloc_count.cc, which replaces the global
// operator new/delete and counts every allocation in thread-local
// counters; perfbench links alloc_off.cc, which leaves the allocator alone
// and reports counting as unavailable, so end-to-end timings never pay
// for the counters.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};

/// True in the traced binary only.
bool AllocCountingAvailable();

/// Allocations made by the calling thread since it started.
AllocCounts ThreadAllocCounts();

}  // namespace perfbench

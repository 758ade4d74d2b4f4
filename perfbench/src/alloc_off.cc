#include "alloc.h"

namespace perfbench {

bool AllocCountingAvailable() { return false; }

AllocCounts ThreadAllocCounts() { return {}; }

}  // namespace perfbench

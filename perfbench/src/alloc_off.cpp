#include "alloc_count.hpp"

namespace perfbench {

bool alloc_counting_enabled() { return false; }
std::uint64_t allocations_total() { return 0; }
std::uint64_t allocations_this_thread() { return 0; }

}  // namespace perfbench

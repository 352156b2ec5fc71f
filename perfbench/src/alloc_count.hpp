// Heap-allocation counting for the traced run.
//
// perfbench_traced links alloc_count.cpp, which replaces the global
// operator new with a counting one; perfbench links alloc_off.cpp, which
// leaves the allocator untouched and reports counting as unavailable.
#pragma once

#include <cstdint>

namespace perfbench {

/// True in the traced executable.
[[nodiscard]] bool alloc_counting_enabled();
/// operator new calls so far, in the whole process / in this thread.
[[nodiscard]] std::uint64_t allocations_total();
[[nodiscard]] std::uint64_t allocations_this_thread();

}  // namespace perfbench

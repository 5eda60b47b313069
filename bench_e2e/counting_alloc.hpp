// Process-wide heap accounting. Linking counting_alloc.cpp replaces the
// global operator new/delete with versions that count every allocation
// and track live bytes by the allocator's real block size
// (malloc_usable_size), so footprint figures reflect actual memory, not
// requested sizes.
#pragma once

#include <cstdint>

namespace tfo::bench {

struct HeapStats {
  std::uint64_t allocs = 0;       ///< operator new calls that succeeded
  std::uint64_t alloc_bytes = 0;  ///< block bytes handed out by those calls
  std::uint64_t live_bytes = 0;   ///< block bytes currently allocated
  std::uint64_t peak_bytes = 0;   ///< high-water mark of live_bytes
};

HeapStats heap_stats();

/// Restarts the high-water mark at the current live byte count.
void reset_heap_peak();

}  // namespace tfo::bench

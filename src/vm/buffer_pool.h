// Kept only because perfbench still reads it; it goes in the next benchmark
// change. The machine has no buffer pool: both counters always read 0.
#pragma once

#include <cstdint>

namespace folvec::vm {

class BufferPool {
 public:
  struct Stats {
    std::uint64_t acquires = 0;
    std::uint64_t hits = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  Stats stats_;
};

}  // namespace folvec::vm

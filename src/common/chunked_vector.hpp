// ChunkedVector: an append-only array stored in fixed 256-element chunks.
//
// Growing allocates one more chunk and never moves an element, so
// references stay valid and the array never holds two copies of itself
// the way a doubling std::vector does mid-reallocation. Indexing is a
// shift and a mask; std::deque, whose node holds only 7 elements of 72 B,
// divides instead. The simulator's event pool and the media's in-flight
// frame tables (a takeover storm puts ~60k frames on one wire) both grow
// to a high-water mark and reuse their slots through a free list.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace tfo {

template <typename T>
class ChunkedVector {
 public:
  static constexpr unsigned kChunkBits = 8;
  static constexpr std::uint32_t kChunk = 1u << kChunkBits;

  /// Appends a value-initialised element and returns its index.
  std::uint32_t emplace_back() {
    if (size_ % kChunk == 0) chunks_.push_back(std::make_unique<T[]>(kChunk));
    return size_++;
  }

  T& operator[](std::uint32_t i) { return chunks_[i >> kChunkBits][i & (kChunk - 1)]; }
  const T& operator[](std::uint32_t i) const {
    return chunks_[i >> kChunkBits][i & (kChunk - 1)];
  }

  /// Elements appended so far (the chunks may hold more, not yet handed out).
  std::uint32_t size() const { return size_; }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::uint32_t size_ = 0;
};

}  // namespace tfo

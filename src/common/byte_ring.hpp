// ByteRing: a growable FIFO of bytes for the TCP send and receive buffers.
//
// A window-limited bulk stream keeps its 64 KB send buffer full, and each
// ACK frees bytes at the front. As a std::vector, that front erase shifted
// the whole remaining buffer (~60 KB per ACK). As a ring, it moves the head.
// Appends go in at the tail and wrap around the end of the storage; a read
// of any range is at most two memcpys.
//
// Capacity follows std::vector exactly: an append that does not fit grows
// the storage to max(size + n, 2 * size), the rule vector::insert uses, and
// nothing shrinks it until release(). So a connection reserves the same
// bytes at every step as it did with vectors, and its heap figures stay as
// they were. Growth unwraps the contents to the front of the new storage.
//
// 24 B: a pointer and three 32-bit counters (storm holds ~100k connections
// with two rings each; ConnectionLayout pins the size).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <new>

#include "common/assert.hpp"
#include "common/bytes.hpp"

namespace tfo {

class ByteRing {
 public:
  ByteRing() = default;
  ~ByteRing() { ::operator delete(data_); }
  ByteRing(const ByteRing&) = delete;
  ByteRing& operator=(const ByteRing&) = delete;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Bytes of storage held (what a vector's capacity() reported).
  std::size_t capacity() const { return cap_; }

  /// Appends `src` at the tail, growing as vector::insert would.
  void append(BytesView src) {
    const std::size_t n = src.size();
    if (n == 0) return;
    if (size_ + n > cap_) grow(size_ + std::max<std::size_t>(size_, n));
    const std::size_t tail = wrap(head_ + size_);
    const std::size_t first = std::min(n, cap_ - tail);
    std::memcpy(data_ + tail, src.data(), first);
    std::memcpy(data_, src.data() + first, n - first);
    size_ += static_cast<std::uint32_t>(n);
  }

  /// Drops the first `n` bytes. An emptied ring restarts at the front of
  /// its storage, so the next appends are contiguous again.
  void consume(std::size_t n) {
    TFO_ASSERT(n <= size_, "ByteRing::consume past the end");
    head_ = static_cast<std::uint32_t>(wrap(head_ + n));
    size_ -= static_cast<std::uint32_t>(n);
    if (size_ == 0) head_ = 0;
  }

  /// Copies bytes [offset, offset + n) into `dst`.
  void copy_out(std::size_t offset, std::size_t n, std::uint8_t* dst) const {
    TFO_ASSERT(offset + n <= size_, "ByteRing::copy_out past the end");
    if (n == 0) return;
    const std::size_t start = wrap(head_ + offset);
    const std::size_t first = std::min(n, cap_ - start);
    std::memcpy(dst, data_ + start, first);
    std::memcpy(dst + first, data_, n - first);
  }

  /// Appends the first `n` bytes to `out` without zero-filling them first.
  /// `out` grows exactly as one vector::insert of all `n` bytes would have
  /// grown it, also when the range wraps and takes two inserts.
  void append_to(Bytes& out, std::size_t n) const {
    TFO_ASSERT(n <= size_, "ByteRing::append_to past the end");
    const std::size_t first = std::min<std::size_t>(n, cap_ - head_);
    if (first < n && out.size() + n > out.capacity()) {
      out.reserve(out.size() + std::max(out.size(), n));
    }
    out.insert(out.end(), data_ + head_, data_ + head_ + first);
    out.insert(out.end(), data_, data_ + (n - first));
  }

  /// Drops the contents and frees the storage.
  void release() {
    ::operator delete(data_);
    data_ = nullptr;
    cap_ = head_ = size_ = 0;
  }

 private:
  std::size_t wrap(std::size_t pos) const { return pos >= cap_ ? pos - cap_ : pos; }

  void grow(std::size_t new_cap) {
    TFO_ASSERT(new_cap <= UINT32_MAX, "ByteRing over 4 GB");
    auto* fresh = static_cast<std::uint8_t*>(::operator new(new_cap));
    copy_out(0, size_, fresh);
    ::operator delete(data_);
    data_ = fresh;
    cap_ = static_cast<std::uint32_t>(new_cap);
    head_ = 0;
  }

  std::uint8_t* data_ = nullptr;
  std::uint32_t cap_ = 0;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

}  // namespace tfo

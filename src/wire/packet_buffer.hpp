// PacketBuffer: the stack's single-allocation wire buffer.
//
// The paper's bridge is a rewrite-in-place design — §3.1 patches the
// destination address of an already-serialized segment and fixes the
// checksum incrementally. A stack that re-serializes and re-copies the
// packet at every layer boundary cannot express that operation; this
// buffer can. It is the simulator's analogue of the kernel sk_buff:
//
//   * one contiguous allocation per packet, with reserved *headroom* so
//     each layer prepends its header in place instead of copying the
//     payload into a larger buffer;
//   * offset-based views: parsing a layer strips its header by moving the
//     logical start forward (trim_front) — no bytes move;
//   * cheap shared ownership: duplicating a frame to N receivers, or
//     retaining a payload slice in an OutputQueue, shares the storage and
//     bumps a refcount;
//   * copy-on-write: any byte mutation first proves exclusive ownership
//     (storage refcount == 1) or deep-copies. This is what makes the
//     §3.1 in-place rewrite safe on a promiscuously snooped frame whose
//     storage the primary's pending delivery still shares — and what
//     keeps a header prepend from clobbering a sibling slice retained by
//     an OutputQueue out of the same storage.
//
// All mutating entry points funnel through the refcount discipline;
// offset-only trims never touch bytes and are therefore always safe on
// shared storage.
//
// Storage comes in three size classes, each recycled through a
// thread-local pool: 256 B for any block of at most 256 B (every SYN,
// ACK, FIN and short segment with its default reserves), 2048 B for a
// full-MSS segment, and up to 64 KB for anything larger. A block sized to
// its packet matters because queues retain packets: a retained 142-B ACK
// used to pin a 2048-B block. Each block is one heap allocation: a 16-B
// header (the `Storage` with the reference count and the block's size)
// followed by the bytes. The pool recycles that allocation whole, so a
// warm pool serves a packet with no heap allocation at all.
//
// The reference count is a plain integer: a buffer and its copies belong
// to one thread (the simulation's), as the thread-local pools already
// assume.
#pragma once

#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <utility>

#include "common/bytes.hpp"

namespace tfo::wire {

/// Process-wide buffer accounting, mirrored into per-host obs snapshots as
/// net.alloc.* / net.bytes_copied (see OBSERVABILITY.md). Returned as a
/// plain snapshot; the counters themselves are relaxed atomics internally,
/// so buffers stay safe to allocate from more than one thread.
struct BufferStats {
  std::uint64_t allocations = 0;    ///< fresh storage blocks created
  std::uint64_t allocated_bytes = 0;///< capacity of those blocks (size class)
  std::uint64_t deep_copies = 0;    ///< CoW / reallocation byte copies
  std::uint64_t copied_bytes = 0;   ///< bytes moved by those copies
  std::uint64_t shares = 0;         ///< zero-copy duplications (refcount bumps)
  /// Capacity of the blocks live buffers hold right now (pooled blocks
  /// excluded). A level, not a count: reset_buffer_stats leaves it alone.
  std::uint64_t live_bytes = 0;
};

BufferStats buffer_stats();
void reset_buffer_stats();

/// The small storage class: blocks for allocations of at most this many
/// bytes, and how many of them a thread's pool retains (1 MB).
inline constexpr std::size_t kSmallBlockBytes = 256;
inline constexpr std::size_t kSmallPoolMaxBlocks = (1 << 20) / kSmallBlockBytes;
/// Small blocks the calling thread's pool holds for reuse.
std::size_t pooled_small_blocks();

class PacketBuffer {
 public:
  /// Reference-counted backing block: this header, then `capacity`
  /// bytes in the same allocation. Public only so the allocation helpers
  /// in the .cpp can construct it; not part of the API. When the last
  /// reference goes, the whole block returns to its class's thread-local
  /// pool.
  struct Storage {
    std::size_t refs;
    /// Bytes a buffer may use (tailroom ends here); at most `capacity`.
    std::uint32_t size;
    /// Bytes allocated behind the header; identifies the size class.
    std::uint32_t capacity;
    std::uint8_t* bytes() { return reinterpret_cast<std::uint8_t*>(this + 1); }
  };

  /// Headroom reserved in front of a payload allocation: enough for the
  /// largest TCP header (60), the IP header (20) and a future link-layer
  /// header (14), rounded up.
  static constexpr std::size_t kDefaultHeadroom = 96;
  /// Tailroom reserved behind a payload allocation: covers Ethernet
  /// minimum-frame padding of runt segments without reallocating.
  static constexpr std::size_t kDefaultTailroom = 46;

  PacketBuffer() = default;
  ~PacketBuffer() { release(); }

  // Copy/move of the handle shares storage (refcount bump, no byte copy);
  // the copy operations record the share for the stats counters.
  PacketBuffer(const PacketBuffer& other);
  PacketBuffer& operator=(const PacketBuffer& other);
  PacketBuffer(PacketBuffer&& other) noexcept
      : storage_(std::exchange(other.storage_, nullptr)),
        head_(other.head_),
        len_(other.len_) {}
  PacketBuffer& operator=(PacketBuffer&& other) noexcept {
    if (this != &other) {
      release();
      storage_ = std::exchange(other.storage_, nullptr);
      head_ = other.head_;
      len_ = other.len_;
    }
    return *this;
  }

  /// Copies a byte vector into pooled storage with zero headroom (counted
  /// as a deep copy). Implicit on purpose: every `frame.payload =
  /// some_bytes` call site (tests, the attacker, control messages) keeps
  /// compiling; no workload's data path builds a buffer this way.
  PacketBuffer(const Bytes& b);  // NOLINT(google-explicit-constructor)

  /// Fresh storage with default headroom/tailroom, contents copied in.
  static PacketBuffer copy_of(BytesView src);

  /// Fresh zero-filled storage of `len` payload bytes with the given
  /// head/tail reserves.
  static PacketBuffer alloc(std::size_t len,
                            std::size_t headroom = kDefaultHeadroom,
                            std::size_t tailroom = kDefaultTailroom);

  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  void clear() {
    release();
    head_ = len_ = 0;
  }

  const std::uint8_t* data() const {
    return storage_ ? storage_->bytes() + head_ : nullptr;
  }
  /// Mutable access — copy-on-write: unshares first.
  std::uint8_t* mutable_data() {
    unshare();
    return storage_ ? storage_->bytes() + head_ : nullptr;
  }

  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + len_; }

  std::uint8_t operator[](std::size_t i) const { return data()[i]; }
  /// Mutable indexing — copy-on-write: unshares first.
  std::uint8_t& operator[](std::size_t i) { return mutable_data()[i]; }

  BytesView view() const { return BytesView(data(), len_); }
  operator BytesView() const { return view(); }  // NOLINT

  /// Strips `n` bytes from the front by advancing the view offset. Never
  /// copies; safe on shared storage (this is how rx parsing peels layer
  /// headers without touching bytes).
  void trim_front(std::size_t n) {
    head_ += n;
    len_ -= n;
  }

  /// Keeps only the first `n` bytes (n <= size). Never copies; this is
  /// how IP `total_length` trims Ethernet minimum-frame padding.
  void trim_to(std::size_t n) {
    if (n < len_) len_ = n;
  }

  /// Grows the front by `n` bytes and returns a pointer to the new region
  /// (a layer's header slot). In place when this buffer exclusively owns
  /// its storage and headroom suffices; otherwise reallocates — exclusive
  /// ownership is required even with headroom available, because shared
  /// storage may carry a sibling slice (or a pending rx delivery) in the
  /// bytes a prepend would claim.
  std::uint8_t* prepend(std::size_t n);

  /// Grows the back by `n` zero bytes and returns a pointer to the new
  /// region (Ethernet runt padding). Same exclusivity rule as prepend.
  std::uint8_t* append(std::size_t n);

  /// Forces exclusive ownership: deep-copies the visible range into fresh
  /// storage (with default headroom) when the storage is shared. The
  /// §3.1 rewrite calls this before patching a snooped frame the
  /// primary's delivery may still be reading.
  void unshare();

  /// True when no other PacketBuffer shares this storage.
  bool unique() const { return !storage_ || storage_->refs == 1; }
  std::size_t headroom() const { return head_; }
  std::size_t tailroom() const {
    return storage_ ? storage_->size - head_ - len_ : 0;
  }

  friend bool operator==(const PacketBuffer& a, const PacketBuffer& b) {
    return a.len_ == b.len_ &&
           (a.len_ == 0 || std::memcmp(a.data(), b.data(), a.len_) == 0);
  }
  friend bool operator!=(const PacketBuffer& a, const PacketBuffer& b) {
    return !(a == b);
  }

 private:
  /// Adopts `s`'s reference.
  PacketBuffer(Storage* s, std::size_t head, std::size_t len)
      : storage_(s), head_(head), len_(len) {}

  /// Drops this handle's reference, recycling the storage on the last.
  void release() {
    if (storage_ != nullptr && --storage_->refs == 0) recycle(storage_);
    storage_ = nullptr;
  }
  static void recycle(Storage* s);
  /// Copies `src` into the storage at byte `at` (a counted deep copy).
  void copy_in(std::size_t at, BytesView src);

  Storage* storage_ = nullptr;
  std::size_t head_ = 0;
  std::size_t len_ = 0;
};

/// Copies a buffer's contents out into a plain Bytes (test/diagnostic use).
inline Bytes to_bytes(const PacketBuffer& b) {
  return Bytes(b.begin(), b.end());
}

std::ostream& operator<<(std::ostream& os, const PacketBuffer& b);

}  // namespace tfo::wire

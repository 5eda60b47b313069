#include "wire/packet_buffer.hpp"

#include <atomic>
#include <ostream>

namespace tfo::wire {

namespace {

/// The live counters: relaxed atomics, so concurrent allocations from
/// several threads stay counted. Relaxed is enough — these are pure
/// statistics with no ordering relationship to anything. The simulation
/// itself runs on one thread, so its snapshots are deterministic.
struct AtomicBufferStats {
  std::atomic<std::uint64_t> allocations{0};
  std::atomic<std::uint64_t> allocated_bytes{0};
  std::atomic<std::uint64_t> deep_copies{0};
  std::atomic<std::uint64_t> copied_bytes{0};
  std::atomic<std::uint64_t> shares{0};
  std::atomic<std::uint64_t> live_bytes{0};
};
AtomicBufferStats g_stats;

constexpr auto kRelaxed = std::memory_order_relaxed;

inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t n = 1) {
  c.fetch_add(n, kRelaxed);
}

/// Thread-local recycling pool for storage blocks, in three size
/// classes. The data path churns one block per segment; recycling the
/// storage (header and backing vector together) avoids two malloc/free
/// pairs and the zero-fill per packet.
/// Recycled blocks keep their stale bytes — every allocation site writes
/// its full visible range (header prepends included), which the
/// determinism suite would expose if violated. Per-thread on purpose:
/// allocation needs no synchronization.
///
///   * small (256 B): any allocation of at most 256 B — every SYN, ACK,
///     FIN and short segment (96 B headroom + 46 B tailroom leave room for
///     114 payload bytes). Without this class each of them pinned an MTU
///     block for as long as a queue retained it. The pool keeps at most
///     1 MB of them, so a burst of frees does not become resident heap;
///   * MTU (2048 B): a full-MSS segment with its reserves;
///   * jumbo (64 KB): any block above 2048 B up to 64 KB, such as a
///     multi-segment payload built in one piece. Jumbo blocks keep their
///     high-water size across reuse — a block is never shrunk on reuse nor
///     regrown on recycle — so in steady state such an allocation costs no
///     zero-fill at all;
///     `vector::resize` only value-initializes when an allocation exceeds
///     every size the block has served before.
constexpr std::size_t kPoolBlockBytes = 2048;
constexpr std::size_t kPoolMaxBlocks = 1024;
constexpr std::size_t kJumboBlockBytes = 64 * 1024;
constexpr std::size_t kJumboMaxBlocks = 32;

using Storage = PacketBuffer::Storage;

// Trivially destructible on purpose: its storage stays readable while
// other thread-locals (the pool itself) wind down, so a Storage released
// during thread exit can tell whether recycling is still safe.
thread_local bool g_pool_alive = false;

struct StoragePool {
  std::vector<Storage*> small;
  std::vector<Storage*> blocks;
  std::vector<Storage*> jumbo;
  StoragePool() { g_pool_alive = true; }
  ~StoragePool() {
    g_pool_alive = false;
    for (auto* cls : {&small, &blocks, &jumbo}) {
      for (Storage* s : *cls) delete s;
    }
  }
};

StoragePool& pool() {
  thread_local StoragePool p;
  return p;
}

/// Pops a recycled storage of the class, or makes a fresh one whose
/// block reserves `block` bytes. The block comes at its recycled (or
/// zero) size.
Storage* take_storage(std::vector<Storage*>& cls, std::size_t block) {
  if (!cls.empty()) {
    Storage* s = cls.back();
    cls.pop_back();
    s->refs = 1;
    return s;
  }
  auto* s = new Storage;
  s->buf.reserve(block);
  return s;
}

/// Counts a new storage block: its reserved capacity, not the request.
void count_block(const Bytes& buf) {
  bump(g_stats.allocations);
  bump(g_stats.allocated_bytes, buf.capacity());
  bump(g_stats.live_bytes, buf.capacity());
}

Storage* make_storage(std::size_t cap) {
  Storage* s = nullptr;
  if (cap <= kSmallBlockBytes) {
    s = take_storage(pool().small, kSmallBlockBytes);
  } else if (cap <= kPoolBlockBytes) {
    s = take_storage(pool().blocks, kPoolBlockBytes);
  } else if (cap <= kJumboBlockBytes) {
    s = take_storage(pool().jumbo, kJumboBlockBytes);
    // Grow only past the block's high-water mark; a smaller request
    // keeps the larger size (the excess is just extra tailroom), so
    // steady-state reuse never value-initializes a byte.
    if (s->buf.size() < cap) s->buf.resize(cap);
    count_block(s->buf);
    return s;
  } else {
    s = new Storage;
  }
  s->buf.resize(cap);  // within a pooled block: shrinks, no fill, no realloc
  count_block(s->buf);
  return s;
}
}  // namespace

void PacketBuffer::recycle(Storage* s) {
  const std::size_t cap = s->buf.capacity();
  g_stats.live_bytes.fetch_sub(cap, kRelaxed);
  std::vector<Storage*>* cls = nullptr;
  if (g_pool_alive && cap >= kSmallBlockBytes) {
    StoragePool& p = pool();
    if (cap >= kJumboBlockBytes) {
      // Recycled at current (high-water) size on purpose — see the pool
      // comment above.
      if (p.jumbo.size() < kJumboMaxBlocks) cls = &p.jumbo;
    } else if (cap >= kPoolBlockBytes) {
      if (p.blocks.size() < kPoolMaxBlocks) {
        s->buf.resize(kPoolBlockBytes);
        cls = &p.blocks;
      }
    } else if (cap == kSmallBlockBytes && p.small.size() < kSmallPoolMaxBlocks) {
      // Only true small blocks: an adopted vector of some other capacity
      // below the MTU class is freed, never pooled under the wrong size.
      s->buf.resize(kSmallBlockBytes);
      cls = &p.small;
    }
  }
  if (cls != nullptr) {
    cls->push_back(s);
  } else {
    delete s;
  }
}

std::size_t pooled_small_blocks() { return pool().small.size(); }

BufferStats buffer_stats() {
  BufferStats out;
  out.allocations = g_stats.allocations.load(kRelaxed);
  out.allocated_bytes = g_stats.allocated_bytes.load(kRelaxed);
  out.deep_copies = g_stats.deep_copies.load(kRelaxed);
  out.copied_bytes = g_stats.copied_bytes.load(kRelaxed);
  out.shares = g_stats.shares.load(kRelaxed);
  out.live_bytes = g_stats.live_bytes.load(kRelaxed);
  return out;
}

void reset_buffer_stats() {
  g_stats.allocations.store(0, kRelaxed);
  g_stats.allocated_bytes.store(0, kRelaxed);
  g_stats.deep_copies.store(0, kRelaxed);
  g_stats.copied_bytes.store(0, kRelaxed);
  g_stats.shares.store(0, kRelaxed);
}

PacketBuffer::PacketBuffer(Bytes b) {
  len_ = b.size();
  head_ = 0;
  storage_ = new Storage;
  storage_->buf = std::move(b);
  count_block(storage_->buf);  // adopted, but a distinct storage block
}

PacketBuffer PacketBuffer::copy_of(BytesView src) {
  PacketBuffer b = alloc(src.size());
  if (!src.empty()) {
    std::memcpy(b.storage_->buf.data() + b.head_, src.data(), src.size());
    bump(g_stats.deep_copies);
    bump(g_stats.copied_bytes, src.size());
  }
  return b;
}

PacketBuffer PacketBuffer::alloc(std::size_t len, std::size_t headroom,
                                 std::size_t tailroom) {
  return PacketBuffer(make_storage(headroom + len + tailroom), headroom, len);
}

PacketBuffer::PacketBuffer(const PacketBuffer& other)
    : storage_(other.storage_), head_(other.head_), len_(other.len_) {
  if (storage_) {
    ++storage_->refs;
    bump(g_stats.shares);
  }
}

PacketBuffer& PacketBuffer::operator=(const PacketBuffer& other) {
  if (this != &other) {
    if (other.storage_) ++other.storage_->refs;
    release();
    storage_ = other.storage_;
    head_ = other.head_;
    len_ = other.len_;
    if (storage_) bump(g_stats.shares);
  }
  return *this;
}

std::uint8_t* PacketBuffer::prepend(std::size_t n) {
  if (storage_ && storage_->refs == 1 && head_ >= n) {
    head_ -= n;
    len_ += n;
    return storage_->buf.data() + head_;
  }
  // Reallocate: new storage with headroom for further prepends, visible
  // range copied behind the freshly claimed header slot.
  const std::size_t new_head =
      kDefaultHeadroom >= n ? kDefaultHeadroom - n : 0;
  PacketBuffer grown(make_storage(new_head + n + len_ + kDefaultTailroom),
                     new_head, n + len_);
  if (len_ != 0) {
    std::memcpy(grown.storage_->buf.data() + new_head + n, data(), len_);
    bump(g_stats.deep_copies);
    bump(g_stats.copied_bytes, len_);
  }
  *this = std::move(grown);
  return storage_->buf.data() + head_;
}

std::uint8_t* PacketBuffer::append(std::size_t n) {
  if (storage_ && storage_->refs == 1 &&
      storage_->buf.size() - head_ - len_ >= n) {
    std::uint8_t* p = storage_->buf.data() + head_ + len_;
    std::memset(p, 0, n);
    len_ += n;
    return p;
  }
  PacketBuffer grown(make_storage(head_ + len_ + n + kDefaultTailroom), head_,
                     len_ + n);
  if (len_ != 0) {
    std::memcpy(grown.storage_->buf.data() + head_, data(), len_);
    bump(g_stats.deep_copies);
    bump(g_stats.copied_bytes, len_);
  }
  std::memset(grown.storage_->buf.data() + head_ + len_, 0, n);
  *this = std::move(grown);
  return storage_->buf.data() + head_ + len_ - n;
}

void PacketBuffer::unshare() {
  if (unique()) return;
  PacketBuffer fresh = alloc(len_);
  if (len_ != 0) {
    std::memcpy(fresh.storage_->buf.data() + fresh.head_, data(), len_);
    bump(g_stats.deep_copies);
    bump(g_stats.copied_bytes, len_);
  }
  *this = std::move(fresh);
}

std::ostream& operator<<(std::ostream& os, const PacketBuffer& b) {
  os << "PacketBuffer(" << b.size() << "B)";
  return os;
}

}  // namespace tfo::wire

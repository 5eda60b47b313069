#include "wire/packet_buffer.hpp"

#include <atomic>
#include <new>
#include <ostream>

#include "common/assert.hpp"

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
/// block (header and bytes are one allocation) avoids a malloc/free pair
/// and the zero-fill per packet. A recycled block keeps its stale bytes
/// and is never re-filled — every allocation site writes its full visible
/// range (header prepends included), which the determinism suite would
/// expose if violated.
/// Per-thread on purpose: allocation needs no synchronization.
///
///   * small (256 B): any allocation of at most 256 B — every SYN, ACK,
///     FIN and short segment (96 B headroom + 46 B tailroom leave room for
///     114 payload bytes). Without this class each of them pinned an MTU
///     block for as long as a queue retained it. The pool keeps at most
///     1 MB of them, so a burst of frees does not become resident heap;
///   * MTU (2048 B): a full-MSS segment with its reserves;
///   * jumbo (64 KB): any block above 2048 B up to 64 KB, such as a
///     multi-segment payload built in one piece. A jumbo block keeps its
///     high-water size across reuse: a smaller request gets the excess as
///     tailroom, a larger one just raises the size within the 64 KB.
///
/// A fresh block is zeroed whole, so no byte a buffer can reach was
/// never written. Anything above 64 KB is allocated to size and freed,
/// never pooled. A block's capacity names its class, so recycling needs
/// no tag.
constexpr std::size_t kPoolBlockBytes = 2048;
constexpr std::size_t kPoolMaxBlocks = 1024;
constexpr std::size_t kJumboBlockBytes = 64 * 1024;
constexpr std::size_t kJumboMaxBlocks = 32;

using Storage = PacketBuffer::Storage;
static_assert(sizeof(Storage) == 16 && alignof(Storage) <= 16);

/// One allocation: the header, then `capacity` zeroed bytes.
Storage* new_storage(std::size_t capacity, std::size_t size) {
  TFO_ASSERT(capacity <= UINT32_MAX, "packet buffer block too large");
  auto* s = new (::operator new(sizeof(Storage) + capacity))
      Storage{1, static_cast<std::uint32_t>(size), static_cast<std::uint32_t>(capacity)};
  std::memset(s->bytes(), 0, capacity);
  return s;
}

void free_storage(Storage* s) { ::operator delete(s); }

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
      for (Storage* s : *cls) free_storage(s);
    }
  }
};

StoragePool& pool() {
  thread_local StoragePool p;
  return p;
}

/// Pops the most recently recycled block of the class, or null.
Storage* pop(std::vector<Storage*>& cls) {
  if (cls.empty()) return nullptr;
  Storage* s = cls.back();
  cls.pop_back();
  s->refs = 1;
  return s;
}

/// Counts a new storage block: its capacity, not the request.
void count_block(const Storage& s) {
  bump(g_stats.allocations);
  bump(g_stats.allocated_bytes, s.capacity);
  bump(g_stats.live_bytes, s.capacity);
}

Storage* make_storage(std::size_t size) {
  Storage* s = nullptr;
  if (size <= kPoolBlockBytes) {
    const bool small = size <= kSmallBlockBytes;
    s = pop(small ? pool().small : pool().blocks);
    if (s != nullptr) {
      s->size = static_cast<std::uint32_t>(size);
    } else {
      s = new_storage(small ? kSmallBlockBytes : kPoolBlockBytes, size);
    }
  } else if (size <= kJumboBlockBytes) {
    s = pop(pool().jumbo);
    if (s == nullptr) {
      s = new_storage(kJumboBlockBytes, size);
    } else if (s->size < size) {
      s->size = static_cast<std::uint32_t>(size);  // a smaller request keeps the excess
    }
  } else {
    s = new_storage(size, size);
  }
  count_block(*s);
  return s;
}
}  // namespace

void PacketBuffer::recycle(Storage* s) {
  const std::size_t cap = s->capacity;
  g_stats.live_bytes.fetch_sub(cap, kRelaxed);
  std::vector<Storage*>* cls = nullptr;
  if (g_pool_alive) {
    StoragePool& p = pool();
    if (cap == kSmallBlockBytes) {
      if (p.small.size() < kSmallPoolMaxBlocks) cls = &p.small;
    } else if (cap == kPoolBlockBytes) {
      if (p.blocks.size() < kPoolMaxBlocks) cls = &p.blocks;
    } else if (cap == kJumboBlockBytes) {
      if (p.jumbo.size() < kJumboMaxBlocks) cls = &p.jumbo;
    }
  }
  if (cls != nullptr) {
    cls->push_back(s);
  } else {
    free_storage(s);
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

PacketBuffer::PacketBuffer(const Bytes& b)
    : PacketBuffer(make_storage(b.size()), 0, b.size()) {
  copy_in(0, b);
}

PacketBuffer PacketBuffer::copy_of(BytesView src) {
  PacketBuffer b = alloc(src.size());
  b.copy_in(b.head_, src);
  return b;
}

void PacketBuffer::copy_in(std::size_t at, BytesView src) {
  if (src.empty()) return;
  std::memcpy(storage_->bytes() + at, src.data(), src.size());
  bump(g_stats.deep_copies);
  bump(g_stats.copied_bytes, src.size());
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
    return storage_->bytes() + head_;
  }
  // Reallocate: new storage with headroom for further prepends, visible
  // range copied behind the freshly claimed header slot.
  const std::size_t new_head =
      kDefaultHeadroom >= n ? kDefaultHeadroom - n : 0;
  PacketBuffer grown(make_storage(new_head + n + len_ + kDefaultTailroom),
                     new_head, n + len_);
  grown.copy_in(new_head + n, view());
  *this = std::move(grown);
  return storage_->bytes() + head_;
}

std::uint8_t* PacketBuffer::append(std::size_t n) {
  if (storage_ && storage_->refs == 1 && tailroom() >= n) {
    std::uint8_t* p = storage_->bytes() + head_ + len_;
    std::memset(p, 0, n);
    len_ += n;
    return p;
  }
  PacketBuffer grown(make_storage(head_ + len_ + n + kDefaultTailroom), head_,
                     len_ + n);
  grown.copy_in(head_, view());
  std::memset(grown.storage_->bytes() + head_ + len_, 0, n);
  *this = std::move(grown);
  return storage_->bytes() + head_ + len_ - n;
}

void PacketBuffer::unshare() {
  if (unique()) return;
  PacketBuffer fresh = alloc(len_);
  fresh.copy_in(fresh.head_, view());
  *this = std::move(fresh);
}

std::ostream& operator<<(std::ostream& os, const PacketBuffer& b) {
  os << "PacketBuffer(" << b.size() << "B)";
  return os;
}

}  // namespace tfo::wire

// Open-addressing hash containers for the hot demux tables.
//
// The 4-tuple lookups on the segment path (TcpLayer::conns_, the primary
// bridge's connection/tombstone tables) ran on node-based unordered_map:
// one allocation per entry, a pointer chase per probe, and a rehash policy
// tuned for generality. FlatMap replaces that with linear probing over a
// power-of-two slot array, the 64-bit hash stored per slot so probes and
// rehashes never re-run the hasher, and backward-shift deletion so
// tombstones never accumulate (a failover storm deletes 100k entries in
// one burst — erase must not degrade future probes). The stored hash also
// marks occupancy: 0 means empty, so a key that hashes to 0 is stored,
// probed and rehashed as 1 (no per-slot flag byte and its padding; storm
// holds some 200k slots).
//
// Deliberately minimal: the subset of the std::unordered_map interface the
// stack uses. Iteration order is slot order, which depends on hashes —
// callers that need determinism iterate keys deterministically themselves
// (see TcpLayer::rekey_local_address). Iterators and value pointers are
// invalidated by any insert or erase.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace tfo {

template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class FlatMap {
  /// The stored hash of an empty slot (see hash_of).
  static constexpr std::uint64_t kEmpty = 0;

  struct Slot {
    std::pair<K, V> kv{};
    std::uint64_t hash = kEmpty;
    bool used() const { return hash != kEmpty; }
  };

 public:
  using value_type = std::pair<K, V>;
  /// Heap bytes per slot (capacity() slots are allocated).
  static constexpr std::size_t kSlotBytes = sizeof(Slot);

  class iterator {
   public:
    iterator() = default;
    iterator(Slot* cur, Slot* end) : cur_(cur), end_(end) { skip(); }
    value_type& operator*() const { return cur_->kv; }
    value_type* operator->() const { return &cur_->kv; }
    iterator& operator++() {
      ++cur_;
      skip();
      return *this;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.cur_ == b.cur_;
    }
    friend bool operator!=(const iterator& a, const iterator& b) {
      return a.cur_ != b.cur_;
    }

   private:
    void skip() {
      while (cur_ != end_ && !cur_->used()) ++cur_;
    }
    Slot* cur_ = nullptr;
    Slot* end_ = nullptr;
    friend class FlatMap;
  };

  FlatMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Allocated slots (a power of two, or 0 before the first insert).
  std::size_t capacity() const { return slots_.size(); }

  void clear() {
    slots_.clear();
    size_ = 0;
  }

  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * 3 < n * 4) cap <<= 1;  // keep load factor under 0.75
    if (cap > slots_.size()) rehash(cap);
  }

  iterator begin() {
    return iterator(slots_.data(), slots_.data() + slots_.size());
  }
  iterator end() {
    return iterator(slots_.data() + slots_.size(), slots_.data() + slots_.size());
  }

  bool contains(const K& key) const { return find_index(key) != kNpos; }

  iterator find(const K& key) {
    const std::size_t i = find_index(key);
    if (i == kNpos) return end();
    iterator it;
    it.cur_ = slots_.data() + i;
    it.end_ = slots_.data() + slots_.size();
    return it;
  }

  V* find_value(const K& key) {
    const std::size_t i = find_index(key);
    return i == kNpos ? nullptr : &slots_[i].kv.second;
  }
  const V* find_value(const K& key) const {
    const std::size_t i = find_index(key);
    return i == kNpos ? nullptr : &slots_[i].kv.second;
  }

  V& operator[](const K& key) { return *try_emplace(key).first; }

  /// Inserts {key, V(args...)} if absent. Returns {pointer to value,
  /// inserted}. (Pointer, not iterator: every caller wants the value.)
  template <typename... Args>
  std::pair<V*, bool> try_emplace(const K& key, Args&&... args) {
    grow_if_needed();
    const std::uint64_t h = hash_of(key);
    std::size_t i = h & mask();
    while (slots_[i].used()) {
      if (slots_[i].hash == h && eq_(slots_[i].kv.first, key)) {
        return {&slots_[i].kv.second, false};
      }
      i = (i + 1) & mask();
    }
    Slot& s = slots_[i];
    s.kv.first = key;
    s.kv.second = V(std::forward<Args>(args)...);
    s.hash = h;
    ++size_;
    return {&s.kv.second, true};
  }

  /// unordered_map-style insert-or-keep; returns {value pointer, inserted}.
  std::pair<V*, bool> emplace(const K& key, V value) {
    auto r = try_emplace(key);
    if (r.second) *r.first = std::move(value);
    return r;
  }

  /// Inserts or overwrites.
  void insert_or_assign(const K& key, V value) {
    *try_emplace(key).first = std::move(value);
  }

  bool erase(const K& key) {
    const std::size_t i = find_index(key);
    if (i == kNpos) return false;
    erase_slot(i);
    return true;
  }

  /// Calls fn(key, value) for every entry (slot order). fn must not
  /// insert or erase.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.used()) fn(s.kv.first, s.kv.second);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.used()) fn(s.kv.first, s.kv.second);
    }
  }

 private:
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinCapacity = 16;

  std::size_t mask() const { return slots_.size() - 1; }

  std::uint64_t hash_of(const K& key) const {
    const std::uint64_t h = hash_(key);
    return h == kEmpty ? 1 : h;
  }

  std::size_t find_index(const K& key) const {
    if (slots_.empty()) return kNpos;
    const std::uint64_t h = hash_of(key);
    std::size_t i = h & mask();
    while (slots_[i].used()) {
      if (slots_[i].hash == h && eq_(slots_[i].kv.first, key)) return i;
      i = (i + 1) & mask();
    }
    return kNpos;
  }

  void grow_if_needed() {
    if (slots_.empty()) {
      rehash(kMinCapacity);
    } else if ((size_ + 1) * 4 > slots_.size() * 3) {
      rehash(slots_.size() * 2);
    }
  }

  void rehash(std::size_t new_cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(new_cap);
    for (Slot& s : old) {
      if (!s.used()) continue;
      std::size_t i = s.hash & mask();
      while (slots_[i].used()) i = (i + 1) & mask();
      slots_[i].kv = std::move(s.kv);
      slots_[i].hash = s.hash;
    }
  }

  /// Backward-shift deletion: pulls displaced successors into the hole so
  /// probe chains stay dense and no tombstone marker is ever needed.
  void erase_slot(std::size_t i) {
    std::size_t hole = i;
    std::size_t j = i;
    while (true) {
      j = (j + 1) & mask();
      if (!slots_[j].used()) break;
      const std::size_t home = slots_[j].hash & mask();
      // j's entry may move into the hole only if the hole lies on its
      // probe path, i.e. home is not cyclically inside (hole, j].
      if (((j - home) & mask()) >= ((j - hole) & mask())) {
        slots_[hole].kv = std::move(slots_[j].kv);
        slots_[hole].hash = slots_[j].hash;
        hole = j;
      }
    }
    slots_[hole].kv = value_type{};
    slots_[hole].hash = kEmpty;
    --size_;
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  [[no_unique_address]] Hash hash_;
  [[no_unique_address]] Eq eq_;
};

/// Open-addressing set with the same probing scheme (thin wrapper).
template <typename K, typename Hash = std::hash<K>, typename Eq = std::equal_to<K>>
class FlatSet {
 public:
  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void clear() { map_.clear(); }
  void reserve(std::size_t n) { map_.reserve(n); }
  bool contains(const K& key) const { return map_.contains(key); }
  bool insert(const K& key) { return map_.try_emplace(key).second; }
  bool erase(const K& key) { return map_.erase(key); }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    map_.for_each([&fn](const K& k, char) { fn(k); });
  }

 private:
  FlatMap<K, char, Hash, Eq> map_;
};

}  // namespace tfo

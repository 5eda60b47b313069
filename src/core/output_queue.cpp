#include "core/output_queue.hpp"

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"

namespace tfo::core {

namespace {

/// Run vectors a thread keeps for reuse. Bounded: a burst of drains must
/// not become resident heap, and a queue that keeps its own capacity
/// would pin it on every idle connection.
constexpr std::size_t kSpareVectors = 64;

// Trivially destructible on purpose, as in packet_buffer.cpp: a queue
// that drains while thread-locals wind down can tell the list is gone.
thread_local bool g_spares_alive = false;

}  // namespace

std::vector<std::vector<OutputQueue::Run>>& OutputQueue::spares() {
  struct List {
    std::vector<std::vector<Run>> vectors;
    List() {
      vectors.reserve(kSpareVectors);
      g_spares_alive = true;
    }
    ~List() { g_spares_alive = false; }
  };
  thread_local List list;
  return list.vectors;
}

std::size_t OutputQueue::find(std::uint64_t offset) const {
  const auto after = std::upper_bound(
      runs_.begin() + static_cast<std::ptrdiff_t>(head_), runs_.end(), offset,
      [](std::uint64_t off, const Run& r) { return off < r.offset; });
  auto i = static_cast<std::size_t>(after - runs_.begin());
  if (i > head_ && runs_[i - 1].end() > offset) --i;
  return i;
}

std::size_t OutputQueue::place(std::size_t i, std::uint64_t offset,
                               wire::PacketBuffer buf) {
  if (i == head_ && head_ > 0) {
    // In front of the live runs: reuse the husk slot before them.
    runs_[--head_] = Run{offset, std::move(buf)};
    return head_;
  }
  runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(i),
               Run{offset, std::move(buf)});
  return i;
}

void OutputQueue::remove(std::size_t first, std::size_t last) {
  if (first == last) return;
  const auto begin = runs_.begin();
  if (first != head_) {
    runs_.erase(begin + static_cast<std::ptrdiff_t>(first),
                begin + static_cast<std::ptrdiff_t>(last));
    return;
  }
  // From the front: release the slices now and advance head_.
  for (std::size_t i = first; i < last; ++i) runs_[i].buf.clear();
  head_ = last;
  if (head_ == runs_.size()) {
    release_storage();
  } else if (2 * head_ >= runs_.size()) {
    runs_.erase(begin, begin + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void OutputQueue::release_storage() {
  runs_.clear();
  head_ = 0;
  if (runs_.capacity() == 0) return;
  // insert() touched the list before this vector got any capacity, so
  // the flag is false only once the list is gone.
  if (g_spares_alive) {
    auto& list = spares();
    if (list.size() < kSpareVectors) list.push_back(std::move(runs_));
  }
  runs_ = std::vector<Run>();  // frees the vector unless the list took it
}

bool OutputQueue::insert(std::uint64_t offset, const wire::PacketBuffer& data) {
  if (data.empty()) return true;
  const std::uint64_t end = offset + data.size();
  const std::size_t first = find(offset);

  // Pass 1: verify all overlaps agree (divergence check) without mutating.
  // Every run from `first` on ends past `offset`, so each one that starts
  // below `end` overlaps.
  for (std::size_t i = first; i < runs_.size() && runs_[i].offset < end; ++i) {
    const Run& r = runs_[i];
    const std::uint64_t lo = std::max(offset, r.offset);
    const std::uint64_t hi = std::min(end, r.end());
    if (std::memcmp(r.buf.data() + (lo - r.offset), data.data() + (lo - offset),
                    static_cast<std::size_t>(hi - lo)) != 0) {
      return false;
    }
  }

  if (runs_.capacity() == 0) {
    auto& list = spares();
    if (!list.empty()) {
      runs_ = std::move(list.back());
      list.pop_back();
    }
  }

  // Pass 2: walk the gaps between existing runs and retain each as a
  // slice sharing `data`'s storage — existing runs are left untouched.
  std::uint64_t pos = offset;
  std::size_t i = first;
  while (pos < end) {
    if (i < runs_.size() && runs_[i].offset <= pos) {  // pos is covered
      pos = std::min(end, runs_[i].end());
      ++i;
      continue;
    }
    const std::uint64_t hi = i < runs_.size() ? std::min(runs_[i].offset, end) : end;
    wire::PacketBuffer slice = data;
    slice.trim_front(static_cast<std::size_t>(pos - offset));
    slice.trim_to(static_cast<std::size_t>(hi - pos));
    total_ += slice.size();
    i = place(i, pos, std::move(slice)) + 1;
    pos = hi;
  }
  publish_gauges();
  return true;
}

std::size_t OutputQueue::contiguous_at(std::uint64_t offset) const {
  std::size_t i = find(offset);
  if (i == runs_.size() || runs_[i].offset > offset) return 0;
  std::uint64_t r_end = runs_[i].end();
  std::size_t n = static_cast<std::size_t>(r_end - offset);
  // Runs are kept as independent slices; contiguity spans abutting ones.
  for (++i; i < runs_.size() && runs_[i].offset == r_end; ++i) {
    n += runs_[i].buf.size();
    r_end += runs_[i].buf.size();
  }
  return n;
}

wire::PacketBuffer OutputQueue::extract(std::uint64_t offset, std::size_t n) {
  TFO_ASSERT(contiguous_at(offset) >= n, "extract beyond contiguous run");
  const std::size_t i = find(offset);
  Run& r = runs_[i];
  const std::size_t skip = static_cast<std::size_t>(offset - r.offset);
  const std::size_t size = r.buf.size();
  total_ -= n;

  if (skip + n <= size) {
    // Fast path: the span lies within one run. The result and any
    // remainder are slices of the same storage, trimmed in place; no
    // bytes move.
    wire::PacketBuffer out;
    if (skip == 0 && n == size) {
      out = std::move(r.buf);
      remove(i, i + 1);
    } else if (skip == 0) {
      out = r.buf;
      out.trim_to(n);
      r.buf.trim_front(n);
      r.offset += n;
    } else {
      out = r.buf;
      out.trim_front(skip);
      out.trim_to(n);
      wire::PacketBuffer right;
      if (skip + n < size) {
        right = r.buf;
        right.trim_front(skip + n);
      }
      r.buf.trim_to(skip);
      // Last: the insert may move `r`.
      if (!right.empty()) place(i + 1, offset + n, std::move(right));
    }
    publish_gauges();
    return out;
  }

  // Slow path: gather across abutting runs into a fresh buffer. The first
  // run keeps any bytes below `offset`, the last any bytes past the span;
  // the runs consumed whole are [first, j).
  wire::PacketBuffer out = wire::PacketBuffer::alloc(n);
  std::uint8_t* w = out.mutable_data();
  std::uint64_t pos = offset;
  std::size_t remaining = n;
  std::size_t first = i;
  std::size_t j = i;
  while (remaining > 0) {
    Run& run = runs_[j];
    const std::size_t run_skip = static_cast<std::size_t>(pos - run.offset);
    const std::size_t take = std::min(run.buf.size() - run_skip, remaining);
    std::memcpy(w, run.buf.data() + run_skip, take);
    w += take;
    remaining -= take;
    pos += take;
    if (run_skip > 0) {
      run.buf.trim_to(run_skip);
      first = j + 1;
    } else if (take < run.buf.size()) {
      run.buf.trim_front(take);
      run.offset = pos;
      break;
    }
    ++j;
  }
  remove(first, j);
  publish_gauges();
  return out;
}

void OutputQueue::drop_below(std::uint64_t offset) {
  std::size_t i = head_;
  for (; i < runs_.size() && runs_[i].end() <= offset; ++i) {
    total_ -= runs_[i].buf.size();
  }
  if (i < runs_.size() && runs_[i].offset < offset) {
    // Trim the head of this run — an offset move on the retained slice.
    const auto cut = static_cast<std::size_t>(offset - runs_[i].offset);
    runs_[i].buf.trim_front(cut);
    runs_[i].offset = offset;
    total_ -= cut;
  }
  remove(head_, i);
  publish_gauges();
}

std::uint64_t OutputQueue::max_end() const {
  TFO_ASSERT(!empty(), "max_end on empty queue");
  return runs_.back().end();
}

}  // namespace tfo::core

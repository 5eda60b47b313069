// The primary/secondary server output queues of §3.2/§3.4.
//
// A queue holds reply-stream payload bytes keyed by *stream offset* (the
// 64-bit unwrapped position in the server→client byte stream; offset 0 is
// the SYN, data starts at 1). The primary bridge keeps one queue for bytes
// produced by the primary's TCP layer and one for bytes diverted from the
// secondary, and sends to the client only byte runs present in both
// (Figure 2 of the paper).
//
// Because the replicas are required to be deterministic, bytes inserted at
// overlapping offsets must agree; a mismatch is surfaced as replica
// divergence rather than silently corrupting the stream.
//
// Storage is zero-copy: each run is a wire::PacketBuffer slice sharing the
// storage of the frame the bytes arrived in — insertion retains references,
// never deep copies. Runs are non-overlapping but may abut; contiguity
// queries walk adjacent runs, and single-run extraction returns a slice of
// the retained buffer without touching bytes.
//
// The runs live in one sorted vector; the live ones are [head_, size).
// The merge reads and removes at the front and appends at the back, so a
// removal advances head_, and the vector is compacted once head_ passes
// half its size. Lookups binary-search by offset. A queue that drains hands
// its vector to a small thread-local spare list, and the next queue that
// needs storage takes one from there: an idle connection holds no run
// storage, and a busy one allocates nothing (DESIGN.md §6).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "obs/metrics.hpp"
#include "wire/packet_buffer.hpp"

namespace tfo::core {

class OutputQueue {
 public:
  OutputQueue() = default;
  ~OutputQueue() {
    // Retire this queue's contribution from the shared gauges.
    if (gauge_bytes_) gauge_bytes_->add(-published_bytes_);
    if (gauge_depth_) gauge_depth_->add(-published_depth_);
  }
  // Bound gauges account this queue's contribution by delta; copying
  // would double-count it.
  OutputQueue(const OutputQueue&) = delete;
  OutputQueue& operator=(const OutputQueue&) = delete;

  /// Publishes this queue's buffered bytes and run count (depth) into
  /// host-wide gauges by delta, so several queues can share one gauge
  /// (the bridge aggregates across connections). Either may be null.
  /// The destructor retires the queue's remaining contribution.
  void bind_gauges(obs::Gauge* bytes, obs::Gauge* depth) {
    gauge_bytes_ = bytes;
    gauge_depth_ = depth;
    publish_gauges();
  }

  /// Inserts `data` at `offset`. Bytes not already present are retained
  /// as slices sharing `data`'s storage (no copy). Returns false (and
  /// leaves the queue unchanged) when an overlapping byte disagrees with
  /// previously inserted content — replica divergence.
  [[nodiscard]] bool insert(std::uint64_t offset,
                            const wire::PacketBuffer& data);
  /// Copying fallback for callers holding loose bytes (tests, probes).
  [[nodiscard]] bool insert(std::uint64_t offset, BytesView data) {
    return insert(offset, wire::PacketBuffer::copy_of(data));
  }
  /// Disambiguator: a Bytes argument converts equally well to BytesView
  /// and PacketBuffer.
  [[nodiscard]] bool insert(std::uint64_t offset, const Bytes& data) {
    return insert(offset, wire::PacketBuffer(data));
  }

  /// Number of contiguous bytes available starting exactly at `offset`
  /// (spans abutting runs).
  std::size_t contiguous_at(std::uint64_t offset) const;

  /// Removes and returns exactly `n` bytes starting at `offset`
  /// (requires contiguous_at(offset) >= n). When the span lies within a
  /// single retained run this is zero-copy — the result is a slice of
  /// the run's storage; spans crossing run boundaries gather into a
  /// fresh buffer.
  wire::PacketBuffer extract(std::uint64_t offset, std::size_t n);

  /// Drops all bytes below `offset` (already sent to the client). Pure
  /// offset trims — never copies.
  void drop_below(std::uint64_t offset);

  bool empty() const { return head_ == runs_.size(); }
  std::size_t total_bytes() const { return total_; }
  /// Lowest offset present (queue must not be empty).
  std::uint64_t min_offset() const { return runs_[head_].offset; }
  /// One past the highest offset present (queue must not be empty).
  std::uint64_t max_end() const;
  /// Runs this queue has room for without allocating; 0 once it drains.
  std::size_t storage_capacity() const { return runs_.capacity(); }

  void clear() {
    release_storage();
    total_ = 0;
    publish_gauges();
  }

 private:
  struct Run {
    std::uint64_t offset = 0;
    wire::PacketBuffer buf;
    std::uint64_t end() const { return offset + buf.size(); }
  };

  /// Index of the live run holding `offset`, or of the first live run
  /// after it when no run does.
  std::size_t find(std::uint64_t offset) const;
  /// Puts a run at index `i` (in [head_, size]) and returns its index.
  std::size_t place(std::size_t i, std::uint64_t offset, wire::PacketBuffer buf);
  /// Removes the live runs [first, last).
  void remove(std::size_t first, std::size_t last);
  /// Hands the vector to the spare list (or frees it) and resets head_.
  void release_storage();
  /// This thread's spare list: run vectors of drained queues.
  static std::vector<std::vector<Run>>& spares();

  void publish_gauges() {
    if (gauge_bytes_) {
      gauge_bytes_->add(static_cast<std::int64_t>(total_) - published_bytes_);
      published_bytes_ = static_cast<std::int64_t>(total_);
    }
    if (gauge_depth_) {
      const auto depth = static_cast<std::int64_t>(runs_.size() - head_);
      gauge_depth_->add(depth - published_depth_);
      published_depth_ = depth;
    }
  }

  // Non-overlapping (possibly abutting) runs sorted by offset; the live
  // ones are [head_, size), those before head_ are empty husks.
  std::vector<Run> runs_;
  std::size_t head_ = 0;
  std::size_t total_ = 0;
  obs::Gauge* gauge_bytes_ = nullptr;
  obs::Gauge* gauge_depth_ = nullptr;
  std::int64_t published_bytes_ = 0, published_depth_ = 0;
};

}  // namespace tfo::core

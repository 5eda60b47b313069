// GRO-style receive coalescing of abutting in-order TCP segments.
//
// A batched NIC hands the stack *runs* of back-to-back data segments from
// the same flow merged into one larger segment — the simulator's analogue
// of kernel Generic Receive Offload. One traversal of IP parse, TCP demux,
// bridge tap and ACK machinery then covers what used to be N traversals,
// which is where the batched data path's segments/s win comes from.
//
// Like real GRO this lives below IP and parses raw headers: src/net cannot
// see ip/ or tcp/ types (layering points the other way), and a hardware
// coalescer would not either. Only bit-exact candidates merge — IPv4 with
// no options or fragmentation, TCP with no options and only ACK/PSH flags,
// contiguous sequence numbers, identical ack/window — and both the IP and
// TCP checksums of every constituent are verified *before* its bytes are
// folded in, because the merged segment's checksums are recomputed and
// must never launder a corrupt frame into a valid-looking one. Anything
// else passes through byte-identical, so coalescing is semantically
// invisible (gro_test pins this down against uncoalesced delivery).
#pragma once

#include <cstdint>
#include <vector>

#include "net/frame.hpp"

namespace tfo::net {

/// One received frame staged in a NIC's rx batch ring.
struct RxFrame {
  EthernetFrame frame;
  bool to_us = false;
};

struct GroParams {
  /// Maximum constituent segments folded into one merged segment.
  std::size_t max_merged = 8;
  /// Cap on the merged TCP payload (stays well under the receive window).
  std::size_t max_payload = 60000;
};

struct GroStats {
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  /// Frames absorbed into a neighbour (frames_in - frames_out).
  std::uint64_t coalesced = 0;
  /// Structurally mergeable frames rejected by checksum verification.
  std::uint64_t bad_checksum = 0;
};

/// Coalesces a batch of arrival-ordered frames. Appends outputs to `out`
/// preserving arrival order (a merged segment takes its run head's
/// position). Only frames that abut in arrival order merge: any frame in
/// between, of any flow, closes the run.
void gro_coalesce(const GroParams& params, std::vector<RxFrame>&& in,
                  std::vector<RxFrame>& out, GroStats& stats);

}  // namespace tfo::net

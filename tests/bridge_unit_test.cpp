// Unit tests for BridgeConn — the §3 merge engine — driven with synthetic
// segments through a mock sink, with byte-exact assertions on what
// reaches the client. Includes the paper's Figure 2 worked example.
#include <gtest/gtest.h>

#include "core/bridge_conn.hpp"
#include "tcp/segment.hpp"

namespace tfo::core {
namespace {

using tcp::ConnKey;
using tcp::Flags;
using tcp::TcpSegment;

const ip::Ipv4 kClient = ip::Ipv4::parse("10.0.0.10");
const ip::Ipv4 kPrimary = ip::Ipv4::parse("10.0.0.1");
constexpr std::uint16_t kSrvPort = 80;
constexpr std::uint16_t kCliPort = 40000;

struct MockSink : BridgeConnSink {
  struct Emitted {
    TcpSegment seg;
    ip::Ipv4 src, dst;
  };
  std::vector<Emitted> out;
  int divergences = 0;
  int closures = 0;

  void emit(const TcpSegment& seg, ip::Ipv4 src, ip::Ipv4 dst) override {
    out.push_back({seg, src, dst});
  }
  void divergence(const ConnKey&) override { ++divergences; }
  void fully_closed(const ConnKey&) override { ++closures; }

  const TcpSegment& last() const { return out.back().seg; }
};

Bytes stream_bytes(std::uint64_t offset, std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((offset + i) * 37 + 5);
  }
  return b;
}

/// Test harness around one BridgeConn with chosen ISNs.
struct BridgeHarness {
  MockSink sink;
  ConnKey key{kPrimary, kSrvPort, kClient, kCliPort};
  BridgeConn conn{sink, key};
  Seq32 iss_p, iss_s, irs;

  explicit BridgeHarness(Seq32 p = 1000, Seq32 s = 5000, Seq32 c = 777)
      : iss_p(p), iss_s(s), irs(c) {}

  TcpSegment client_syn() {
    TcpSegment seg;
    seg.src_port = kCliPort;
    seg.dst_port = kSrvPort;
    seg.seq = irs;
    seg.flags = Flags::kSyn;
    seg.window = 65535;
    seg.mss = 1460;
    return seg;
  }
  TcpSegment server_synack(Seq32 iss, std::uint16_t mss, std::uint16_t win) {
    TcpSegment seg;
    seg.src_port = kSrvPort;
    seg.dst_port = kCliPort;
    seg.seq = iss;
    seg.ack = seq_add(irs, 1);
    seg.flags = Flags::kSyn | Flags::kAck;
    seg.window = win;
    seg.mss = mss;
    return seg;
  }
  /// Server data segment: `offset` is the server-stream offset (1 = first
  /// payload byte), in the given replica's sequence space.
  TcpSegment server_data(Seq32 iss, std::uint64_t offset, std::size_t len,
                         std::uint64_t ack_client_offset, std::uint16_t win,
                         bool fin = false) {
    TcpSegment seg;
    seg.src_port = kSrvPort;
    seg.dst_port = kCliPort;
    seg.seq = seq_add(iss, static_cast<std::int64_t>(offset));
    seg.ack = seq_add(irs, static_cast<std::int64_t>(ack_client_offset));
    seg.flags = Flags::kAck | (fin ? Flags::kFin : 0);
    seg.window = win;
    seg.payload = stream_bytes(offset, len);
    return seg;
  }

  /// Runs the §7.1 client-initiated handshake; leaves the merged SYN-ACK
  /// in sink.out[0].
  void handshake(std::uint16_t mss_p = 1460, std::uint16_t mss_s = 1460,
                 std::uint16_t win_p = 60000, std::uint16_t win_s = 60000) {
    auto syn = client_syn();
    conn.on_remote_segment(syn);
    conn.on_primary_segment(server_synack(iss_p, mss_p, win_p));
    conn.on_secondary_segment(server_synack(iss_s, mss_s, win_s));
  }
};

// ------------------------------------------------------------- handshake

TEST(BridgeHandshake, MergedSynAckUsesSecondarySeqAndMinima) {
  BridgeHarness h;
  h.handshake(1460, 700, 60000, 30000);
  ASSERT_EQ(h.sink.out.size(), 1u);
  const TcpSegment& syn = h.sink.last();
  EXPECT_TRUE(syn.syn());
  EXPECT_TRUE(syn.has_ack());
  EXPECT_EQ(syn.seq, h.iss_s);                       // §3.3: S's space
  EXPECT_EQ(syn.ack, seq_add(h.irs, 1));
  EXPECT_EQ(*syn.mss, 700);                          // §7.1: min MSS
  EXPECT_EQ(syn.window, 30000);                      // min window
  EXPECT_EQ(h.sink.out[0].src, kPrimary);
  EXPECT_EQ(h.sink.out[0].dst, kClient);
}

TEST(BridgeHandshake, NoSynAckUntilBothReplicasResponded) {
  BridgeHarness h;
  auto syn = h.client_syn();
  h.conn.on_remote_segment(syn);
  h.conn.on_primary_segment(h.server_synack(h.iss_p, 1460, 60000));
  EXPECT_TRUE(h.sink.out.empty());  // waiting for the secondary
  h.conn.on_secondary_segment(h.server_synack(h.iss_s, 1460, 60000));
  EXPECT_EQ(h.sink.out.size(), 1u);
}

TEST(BridgeHandshake, OrderOfReplicaSynsIrrelevant) {
  BridgeHarness h;
  auto syn = h.client_syn();
  h.conn.on_remote_segment(syn);
  h.conn.on_secondary_segment(h.server_synack(h.iss_s, 1460, 60000));
  EXPECT_TRUE(h.sink.out.empty());
  h.conn.on_primary_segment(h.server_synack(h.iss_p, 1460, 60000));
  ASSERT_EQ(h.sink.out.size(), 1u);
  EXPECT_EQ(h.sink.last().seq, h.iss_s);
}

TEST(BridgeHandshake, ClientIsnRecoveredFromSecondarySynAck) {
  // The primary missed the client SYN entirely; the bridge learns the
  // client ISN from the secondary's SYN+ACK (ack - 1).
  BridgeHarness h;
  h.conn.on_secondary_segment(h.server_synack(h.iss_s, 1460, 60000));
  h.conn.on_primary_segment(h.server_synack(h.iss_p, 1460, 60000));
  ASSERT_EQ(h.sink.out.size(), 1u);
  EXPECT_EQ(h.sink.last().ack, seq_add(h.irs, 1));
}

TEST(BridgeHandshake, SynRetransmissionResendsMergedSynAck) {
  BridgeHarness h;
  h.handshake();
  ASSERT_EQ(h.sink.out.size(), 1u);
  // P's TCP retransmits its SYN-ACK (the client's ACK was lost).
  h.conn.on_primary_segment(h.server_synack(h.iss_p, 1460, 60000));
  ASSERT_EQ(h.sink.out.size(), 2u);
  EXPECT_TRUE(h.sink.last().syn());
  EXPECT_EQ(h.sink.last().seq, h.iss_s);
}

TEST(BridgeHandshake, ServerInitiatedSynsMergeWithoutAck) {
  // §7.2: both replicas actively open toward unreplicated T.
  BridgeHarness h;
  TcpSegment syn_p;
  syn_p.src_port = kSrvPort;
  syn_p.dst_port = kCliPort;
  syn_p.seq = h.iss_p;
  syn_p.flags = Flags::kSyn;
  syn_p.window = 50000;
  syn_p.mss = 1460;
  TcpSegment syn_s = syn_p;
  syn_s.seq = h.iss_s;
  syn_s.mss = 900;

  h.conn.on_primary_segment(syn_p);
  EXPECT_TRUE(h.sink.out.empty());
  h.conn.on_secondary_segment(syn_s);
  ASSERT_EQ(h.sink.out.size(), 1u);
  const TcpSegment& merged = h.sink.last();
  EXPECT_TRUE(merged.syn());
  EXPECT_FALSE(merged.has_ack());
  EXPECT_EQ(merged.seq, h.iss_s);
  EXPECT_EQ(*merged.mss, 900);
}

// ----------------------------------------------------------------- merge

TEST(BridgeMerge, PaperFigure2Scenario) {
  // Figure 2 of the paper, adapted to our offsets: Δseq = 30, the bridge
  // has already sent stream bytes up to (but excluding) offset 23. The
  // primary's TCP delivers payload bytes at P-seq 51..54 (offsets 21..24:
  // 21,22 are old, 23,24 are new and enqueued); then the secondary's
  // segment carries offsets 23..26. Matching bytes 23,24 go out in a new
  // segment; 25,26 remain in the secondary output queue.
  BridgeHarness h(/*p=*/30, /*s=*/0);
  h.handshake();
  h.sink.out.clear();

  // Bring the connection to next_to_client == 23: both replicas send
  // offsets 1..22, which merge and go out.
  h.conn.on_primary_segment(h.server_data(h.iss_p, 1, 22, 1, 60000));
  h.conn.on_secondary_segment(h.server_data(h.iss_s, 1, 22, 1, 60000));
  ASSERT_FALSE(h.sink.out.empty());
  h.sink.out.clear();

  // P: bytes 51..54 in P space = offsets 21..24 (21,22 already sent).
  h.conn.on_primary_segment(h.server_data(h.iss_p, 21, 4, 1, 60000));
  EXPECT_TRUE(h.sink.out.empty());  // waiting for S's copy
  EXPECT_EQ(h.conn.primary_queue_bytes(), 2u);  // 23,24 queued; 21,22 trimmed

  // S: bytes 23..26.
  h.conn.on_secondary_segment(h.server_data(h.iss_s, 23, 4, 1, 60000));
  ASSERT_EQ(h.sink.out.size(), 1u);
  const TcpSegment& merged = h.sink.last();
  EXPECT_EQ(merged.seq, seq_add(h.iss_s, 23));   // S-space sequence number
  EXPECT_EQ(merged.payload, stream_bytes(23, 2));  // the matching bytes
  EXPECT_EQ(h.conn.secondary_queue_bytes(), 2u);   // bytes 25,26 wait for P
  EXPECT_EQ(h.conn.primary_queue_bytes(), 0u);
}

TEST(BridgeMerge, AckAndWindowAreMinima) {
  BridgeHarness h;
  h.handshake();
  h.sink.out.clear();
  // P acknowledges client offset 101 with window 4000; S acknowledges 81
  // with window 9000. The merged segment must carry ack=81, win=4000.
  h.conn.on_primary_segment(h.server_data(h.iss_p, 1, 10, 101, 4000));
  h.conn.on_secondary_segment(h.server_data(h.iss_s, 1, 10, 81, 9000));
  ASSERT_EQ(h.sink.out.size(), 1u);
  EXPECT_EQ(h.sink.last().ack, seq_add(h.irs, 81));
  EXPECT_EQ(h.sink.last().window, 4000);
}

TEST(BridgeMerge, DifferentSegmentationMergesByteExactly) {
  // §3.2: "one of the server's TCP layer might split the reply into
  // multiple TCP segments, whereas the other ... a single segment."
  BridgeHarness h;
  h.handshake();
  h.sink.out.clear();
  h.conn.on_primary_segment(h.server_data(h.iss_p, 1, 1000, 1, 60000));
  for (std::uint64_t off = 1; off < 1001; off += 100) {
    h.conn.on_secondary_segment(h.server_data(h.iss_s, off, 100, 1, 60000));
  }
  Bytes client_view;
  for (const auto& e : h.sink.out) append(client_view, e.seg.payload);
  EXPECT_EQ(client_view, stream_bytes(1, 1000));
}

TEST(BridgeMerge, EmptyAckEmittedOnlyOnProgress) {
  BridgeHarness h;
  h.handshake();
  h.sink.out.clear();
  // Delayed ACKs from both replicas acknowledging client offset 51.
  h.conn.on_primary_segment(h.server_data(h.iss_p, 1, 0, 51, 60000));
  EXPECT_TRUE(h.sink.out.empty());  // min(51, 1) == 1: no progress yet
  h.conn.on_secondary_segment(h.server_data(h.iss_s, 1, 0, 51, 60000));
  ASSERT_EQ(h.sink.out.size(), 1u);  // both at 51: merged empty ACK
  EXPECT_TRUE(h.sink.last().payload.empty());
  EXPECT_EQ(h.sink.last().ack, seq_add(h.irs, 51));

  // The same delayed ACK again: no progress, nothing emitted (§3.4).
  h.conn.on_primary_segment(h.server_data(h.iss_p, 1, 0, 51, 60000));
  h.conn.on_secondary_segment(h.server_data(h.iss_s, 1, 0, 51, 60000));
  EXPECT_EQ(h.sink.out.size(), 1u);
}

TEST(BridgeMerge, WindowReopenIsForwarded) {
  BridgeHarness h;
  h.handshake();
  h.sink.out.clear();
  // Both replicas advertise a closed window...
  h.conn.on_primary_segment(h.server_data(h.iss_p, 1, 0, 51, 0));
  h.conn.on_secondary_segment(h.server_data(h.iss_s, 1, 0, 51, 0));
  ASSERT_FALSE(h.sink.out.empty());
  EXPECT_EQ(h.sink.last().window, 0);
  h.sink.out.clear();
  // ...then both reopen without new ACK progress: must still go out.
  h.conn.on_primary_segment(h.server_data(h.iss_p, 1, 0, 51, 30000));
  h.conn.on_secondary_segment(h.server_data(h.iss_s, 1, 0, 51, 30000));
  ASSERT_FALSE(h.sink.out.empty());
  EXPECT_GT(h.sink.last().window, 0);
}

TEST(BridgeMerge, RetransmissionForwardedImmediatelyWithoutQueueing) {
  // §4: "it does not enqueue k, but sends k immediately."
  BridgeHarness h;
  h.handshake();
  h.conn.on_primary_segment(h.server_data(h.iss_p, 1, 100, 1, 60000));
  h.conn.on_secondary_segment(h.server_data(h.iss_s, 1, 100, 1, 60000));
  h.sink.out.clear();

  // The primary's TCP retransmits offsets 1..100 (all already sent).
  h.conn.on_primary_segment(h.server_data(h.iss_p, 1, 100, 1, 60000));
  ASSERT_EQ(h.sink.out.size(), 1u);
  EXPECT_EQ(h.sink.last().seq, seq_add(h.iss_s, 1));
  EXPECT_EQ(h.sink.last().payload.size(), 100u);
  EXPECT_EQ(h.conn.primary_queue_bytes(), 0u);

  // Same for a secondary retransmission: forwarded again (the client may
  // see duplicates; its TCP discards them).
  h.conn.on_secondary_segment(h.server_data(h.iss_s, 1, 100, 1, 60000));
  EXPECT_EQ(h.sink.out.size(), 2u);
}

// ------------------------------------------------------------ divergence

TEST(BridgeDivergence, PayloadMismatchDetected) {
  BridgeHarness h;
  h.handshake();
  h.sink.out.clear();
  h.conn.on_primary_segment(h.server_data(h.iss_p, 1, 50, 1, 60000));
  auto bad = h.server_data(h.iss_s, 1, 50, 1, 60000);
  bad.payload[10] ^= 0x40;
  h.conn.on_secondary_segment(bad);
  EXPECT_EQ(h.sink.divergences, 1);
  EXPECT_EQ(h.conn.state(), BridgeConn::Phase::kClosed);
}

TEST(BridgeDivergence, FinPositionMismatchDetected) {
  BridgeHarness h;
  h.handshake();
  h.conn.on_primary_segment(h.server_data(h.iss_p, 1, 50, 1, 60000, /*fin=*/true));
  // Secondary claims the stream ends 10 bytes later: not the same reply.
  h.conn.on_secondary_segment(h.server_data(h.iss_s, 1, 60, 1, 60000, /*fin=*/true));
  EXPECT_EQ(h.sink.divergences, 1);
}

// ------------------------------------------------------------- failures

TEST(BridgeSoloMode, SecondaryFailureFlushesPrimaryQueue) {
  BridgeHarness h;
  h.handshake();
  h.sink.out.clear();
  // P produced offsets 1..500; S never confirmed them.
  h.conn.on_primary_segment(h.server_data(h.iss_p, 1, 500, 61, 45000));
  EXPECT_TRUE(h.sink.out.empty());
  h.conn.on_secondary_failed();
  ASSERT_FALSE(h.sink.out.empty());
  Bytes flushed;
  for (const auto& e : h.sink.out) append(flushed, e.seg.payload);
  EXPECT_EQ(flushed, stream_bytes(1, 500));
  // §6 step 3: the flushed segments carry the *primary's* ack and window.
  EXPECT_EQ(h.sink.last().ack, seq_add(h.irs, 61));
  EXPECT_EQ(h.sink.last().window, 45000);
}

TEST(BridgeSoloMode, SequenceTranslationContinuesForever) {
  BridgeHarness h;
  h.handshake();
  h.conn.on_secondary_failed();
  h.sink.out.clear();
  // §6: "the bridge of the primary server must not discontinue to
  // compensate the offset."
  h.conn.on_primary_segment(h.server_data(h.iss_p, 1, 10, 1, 60000));
  ASSERT_EQ(h.sink.out.size(), 1u);
  EXPECT_EQ(h.sink.last().seq, seq_add(h.iss_s, 1));
  h.conn.on_primary_segment(h.server_data(h.iss_p, 11, 10, 1, 60000));
  EXPECT_EQ(h.sink.last().seq, seq_add(h.iss_s, 11));
}

TEST(BridgeSoloMode, MidHandshakeSecondaryFailureAdoptsPrimarySpace) {
  BridgeHarness h;
  auto syn = h.client_syn();
  h.conn.on_remote_segment(syn);
  h.conn.on_primary_segment(h.server_synack(h.iss_p, 1460, 60000));
  EXPECT_TRUE(h.sink.out.empty());
  h.conn.on_secondary_failed();
  // Nothing was promised to the client yet: the bridge may now use the
  // primary's sequence numbers directly.
  ASSERT_EQ(h.sink.out.size(), 1u);
  EXPECT_EQ(h.sink.last().seq, h.iss_p);
  EXPECT_TRUE(h.sink.last().syn());
}

// ----------------------------------------------------------- termination

TEST(BridgeTermination, ServerFinSentOnlyWhenBothReplicasFinished) {
  BridgeHarness h;
  h.handshake();
  h.sink.out.clear();
  h.conn.on_primary_segment(h.server_data(h.iss_p, 1, 20, 1, 60000, /*fin=*/true));
  EXPECT_TRUE(h.sink.out.empty());  // §8: wait for the secondary's FIN
  h.conn.on_secondary_segment(h.server_data(h.iss_s, 1, 20, 1, 60000, /*fin=*/true));
  ASSERT_FALSE(h.sink.out.empty());
  EXPECT_TRUE(h.sink.last().fin());
  EXPECT_EQ(h.sink.last().payload.size(), 20u);
}

TEST(BridgeTermination, FullCloseReportsFullyClosed) {
  BridgeHarness h;
  h.handshake();
  // Client sends FIN at offset 1 (no data): remote stream offset 1.
  auto client_fin = h.client_syn();
  client_fin.flags = Flags::kFin | Flags::kAck;
  client_fin.seq = seq_add(h.irs, 1);
  client_fin.ack = seq_add(h.iss_s, 1);
  h.conn.on_remote_segment(client_fin);

  // Both replicas ACK the client FIN (offset 2) and send their own FINs.
  h.conn.on_primary_segment(h.server_data(h.iss_p, 1, 0, 2, 60000, /*fin=*/true));
  h.conn.on_secondary_segment(h.server_data(h.iss_s, 1, 0, 2, 60000, /*fin=*/true));
  EXPECT_EQ(h.sink.closures, 0);

  // Client acknowledges the server FIN (server offset 2).
  auto final_ack = client_fin;
  final_ack.flags = Flags::kAck;
  final_ack.seq = seq_add(h.irs, 2);
  final_ack.ack = seq_add(h.iss_s, 2);
  h.conn.on_remote_segment(final_ack);
  EXPECT_EQ(h.sink.closures, 1);
  EXPECT_EQ(h.conn.state(), BridgeConn::Phase::kClosed);
}

TEST(BridgeTermination, ClientRstKillsConnection) {
  BridgeHarness h;
  h.handshake();
  auto rst = h.client_syn();
  rst.flags = Flags::kRst;
  rst.seq = seq_add(h.irs, 1);
  h.conn.on_remote_segment(rst);
  EXPECT_EQ(h.conn.state(), BridgeConn::Phase::kClosed);
  EXPECT_EQ(h.sink.closures, 1);
}

// ----------------------------------------------------------------- phases

using Phase = BridgeConn::Phase;

/// Which BridgeConnSink teardown call an event must make, if any.
enum class SinkCall { kNone, kDivergence, kFullyClosed };

/// One event, the phase it must leave the connection in, and its sink call.
struct PhaseStep {
  const char* event;
  void (*apply)(BridgeHarness&);
  Phase then;
  SinkCall call = SinkCall::kNone;
};

void client_syn(BridgeHarness& h) {
  auto syn = h.client_syn();
  h.conn.on_remote_segment(syn);
}
void p_synack(BridgeHarness& h) {
  h.conn.on_primary_segment(h.server_synack(h.iss_p, 1460, 60000));
}
void s_synack(BridgeHarness& h) {
  h.conn.on_secondary_segment(h.server_synack(h.iss_s, 1460, 60000));
}
void handshake(BridgeHarness& h) { h.handshake(); }
void s_failed(BridgeHarness& h) { h.conn.on_secondary_failed(); }
void client_rst(BridgeHarness& h) {
  auto rst = h.client_syn();
  rst.flags = Flags::kRst;
  rst.seq = seq_add(h.irs, 1);
  h.conn.on_remote_segment(rst);
}
void p_rst(BridgeHarness& h) {
  auto rst = h.server_data(h.iss_p, 1, 0, 1, 0);
  rst.flags = Flags::kRst;
  h.conn.on_primary_segment(rst);
}
void p_data(BridgeHarness& h) {
  h.conn.on_primary_segment(h.server_data(h.iss_p, 1, 50, 1, 60000));
}
void s_other_data(BridgeHarness& h) {
  auto bad = h.server_data(h.iss_s, 1, 50, 1, 60000);
  bad.payload[10] ^= 0x40;
  h.conn.on_secondary_segment(bad);
}
void p_fin_at_50(BridgeHarness& h) {
  h.conn.on_primary_segment(h.server_data(h.iss_p, 1, 50, 1, 60000, /*fin=*/true));
}
void s_fin_at_60(BridgeHarness& h) {
  h.conn.on_secondary_segment(h.server_data(h.iss_s, 1, 60, 1, 60000, /*fin=*/true));
}
void client_fin(BridgeHarness& h) {
  auto fin = h.client_syn();
  fin.flags = Flags::kFin | Flags::kAck;
  fin.seq = seq_add(h.irs, 1);
  fin.ack = seq_add(h.iss_s, 1);
  h.conn.on_remote_segment(fin);
}
void p_fin_acking_client(BridgeHarness& h) {
  h.conn.on_primary_segment(h.server_data(h.iss_p, 1, 0, 2, 60000, /*fin=*/true));
}
void s_fin_acking_client(BridgeHarness& h) {
  h.conn.on_secondary_segment(h.server_data(h.iss_s, 1, 0, 2, 60000, /*fin=*/true));
}
void client_acks_fin(BridgeHarness& h) {
  auto ack = h.client_syn();
  ack.flags = Flags::kAck;
  ack.seq = seq_add(h.irs, 2);
  ack.ack = seq_add(h.iss_s, 2);
  h.conn.on_remote_segment(ack);
}

TEST(BridgePhase, EveryTransitionLandsInItsPhase) {
  const struct {
    const char* name;
    std::vector<PhaseStep> steps;
  } cases[] = {
      {"P's SYN first",
       {{"client SYN", client_syn, Phase::kHandshake},
        {"P SYN-ACK", p_synack, Phase::kHandshake},
        {"S SYN-ACK", s_synack, Phase::kMerging}}},
      {"S's SYN first",
       {{"client SYN", client_syn, Phase::kHandshake},
        {"S SYN-ACK", s_synack, Phase::kHandshake},
        {"P SYN-ACK", p_synack, Phase::kMerging}}},
      {"S fails before P's SYN",
       {{"client SYN", client_syn, Phase::kHandshake},
        {"S fails", s_failed, Phase::kSoloHandshake},
        {"S SYN-ACK, ignored", s_synack, Phase::kSoloHandshake},
        {"P SYN-ACK", p_synack, Phase::kSolo}}},
      {"S fails after P's SYN",
       {{"client SYN", client_syn, Phase::kHandshake},
        {"P SYN-ACK", p_synack, Phase::kHandshake},
        {"S fails", s_failed, Phase::kSolo}}},
      {"S fails after the handshake",
       {{"handshake", handshake, Phase::kMerging},
        {"S fails", s_failed, Phase::kSolo},
        {"client RST", client_rst, Phase::kClosed, SinkCall::kFullyClosed}}},
      {"client RST",
       {{"handshake", handshake, Phase::kMerging},
        {"client RST", client_rst, Phase::kClosed, SinkCall::kFullyClosed},
        {"P data, ignored", p_data, Phase::kClosed}}},
      {"P RST",
       {{"handshake", handshake, Phase::kMerging},
        {"P RST", p_rst, Phase::kClosed, SinkCall::kFullyClosed}}},
      {"payload divergence",
       {{"handshake", handshake, Phase::kMerging},
        {"P data", p_data, Phase::kMerging},
        {"S data differs", s_other_data, Phase::kClosed, SinkCall::kDivergence}}},
      {"FIN divergence",
       {{"handshake", handshake, Phase::kMerging},
        {"P FIN at 50", p_fin_at_50, Phase::kMerging},
        {"S FIN at 60", s_fin_at_60, Phase::kClosed, SinkCall::kDivergence}}},
      {"full close",
       {{"handshake", handshake, Phase::kMerging},
        {"client FIN", client_fin, Phase::kMerging},
        {"P FIN", p_fin_acking_client, Phase::kMerging},
        {"S FIN", s_fin_acking_client, Phase::kMerging},
        {"client ACKs FIN", client_acks_fin, Phase::kClosed, SinkCall::kFullyClosed}}},
  };
  for (const auto& c : cases) {
    BridgeHarness h;
    for (const PhaseStep& step : c.steps) {
      SCOPED_TRACE(std::string(c.name) + " / " + step.event);
      const int divergences = h.sink.divergences;
      const int closures = h.sink.closures;
      step.apply(h);
      EXPECT_EQ(h.conn.state(), step.then);
      EXPECT_EQ(h.sink.divergences - divergences,
                step.call == SinkCall::kDivergence ? 1 : 0);
      EXPECT_EQ(h.sink.closures - closures, step.call == SinkCall::kFullyClosed ? 1 : 0);
    }
  }
}

// ------------------------------------------------------- ack translation

TEST(BridgeAckTranslation, ClientAckMappedIntoPrimarySpace) {
  BridgeHarness h;
  h.handshake();
  h.conn.on_primary_segment(h.server_data(h.iss_p, 1, 100, 1, 60000));
  h.conn.on_secondary_segment(h.server_data(h.iss_s, 1, 100, 1, 60000));

  // Client acknowledges server offset 101 — in S's sequence space.
  auto ack = h.client_syn();
  ack.flags = Flags::kAck;
  ack.seq = seq_add(h.irs, 1);
  ack.ack = seq_add(h.iss_s, 101);
  h.conn.on_remote_segment(ack);
  // After translation, the primary's TCP sees its own space.
  EXPECT_EQ(ack.ack, seq_add(h.iss_p, 101));
}

TEST(BridgeAckTranslation, WrapAroundSafe) {
  // ISNs straddling the 32-bit wrap: the translation must still be exact.
  BridgeHarness h(/*p=*/0xffffff00u, /*s=*/0x00000080u, /*c=*/0xfffffff0u);
  h.handshake();
  h.conn.on_primary_segment(h.server_data(h.iss_p, 1, 0x300, 1, 60000));
  h.conn.on_secondary_segment(h.server_data(h.iss_s, 1, 0x300, 1, 60000));
  auto ack = h.client_syn();
  ack.flags = Flags::kAck;
  ack.seq = seq_add(h.irs, 1);
  ack.ack = seq_add(h.iss_s, 0x301);  // wraps past 2^32 in P space
  h.conn.on_remote_segment(ack);
  EXPECT_EQ(ack.ack, seq_add(h.iss_p, 0x301));
  // And the emitted stream used S-space numbers throughout.
  bool found = false;
  for (const auto& e : h.sink.out) {
    if (!e.seg.payload.empty()) {
      EXPECT_EQ(e.seg.seq, seq_add(h.iss_s, 1));
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace tfo::core

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "obs/annotations.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/bytes.hpp"
#include "runtime/comm.hpp"

namespace aero {

// ---------------------------------------------------------------------------
// Transfer frames.
//
// Every work-unit transfer and result gather is framed under a fresh
// per-dispatch nonce; acks and receiver-side deduplication key on the nonce,
// NOT the unit id (retransmissions and fabric-duplicated copies of one
// dispatch share its nonce and are dropped, while a unit that legitimately
// returns to a rank it visited before arrives under a fresh nonce and is
// accepted). Two frame kinds share the wire, distinguished by the leading
// byte and both protected by a header CRC so a corrupted kind or nonce
// cannot masquerade as a different dispatch:
//
//   inline (copy path):  [kind=0][nonce:8][hcrc:4][unit bytes...]
//   window (RMA path):   [kind=1][nonce:8][src:4][slot:4][len:8][digest:8]
//                        [hcrc:4]
//
// The inline frame carries the full serialized payload through the mailbox.
// The window frame is a 37-byte control message: the payload itself sits in
// the sender's PayloadWindow and moves to the receiver by ownership handoff
// (the in-process equivalent of MPI_Get against a registered window). The
// digest is a sampled fingerprint of the published bytes -- the window is
// outside the fault injector's reach, but a handoff that pairs a control
// frame with the wrong slot contents must still be detected.
// ---------------------------------------------------------------------------

constexpr std::size_t kInlineFrameHeader = 13;
constexpr std::size_t kWindowFrameSize = 37;

/// Decoded view of either frame kind. For inline frames `data/size` alias
/// the message payload (valid while the message lives); window frames carry
/// the handoff coordinates instead.
struct ParsedFrame {
  std::uint64_t nonce = 0;
  bool windowed = false;
  // Inline frames: the serialized unit bytes (CRC trailer included).
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
  // Window frames: where to take the payload from, and what it should be.
  int src = -1;
  std::uint32_t slot = 0;
  std::uint64_t length = 0;
  std::uint64_t digest = 0;
};

/// Stamp the inline-frame header into `framed[0..13)`. `framed` must have
/// been produced by serialize(..., kInlineFrameHeader) so the serialized
/// payload already sits after the reserved header room -- sealing is a
/// 13-byte write, never a payload copy.
void seal_inline_frame(std::uint64_t nonce, std::vector<std::uint8_t>& framed);

/// Build the 37-byte control frame for a window transfer (fits ByteBuf
/// inline storage; the mailbox never heap-allocates for it).
ByteBuf make_window_frame(std::uint64_t nonce, int src, std::uint32_t slot,
                          std::uint64_t length, std::uint64_t digest);

/// Validate and decode a transfer frame; nullopt on truncation or header
/// corruption (the sender retransmits an intact copy).
std::optional<ParsedFrame> parse_frame(const ByteBuf& payload);

/// Work acknowledgements carry the transfer nonce plus a CRC so a corrupted
/// ack cannot erase the wrong in-flight entry (nonces are small integers; a
/// single flipped byte could otherwise alias another pending transfer).
ByteBuf make_ack(std::uint64_t nonce);
std::optional<std::uint64_t> parse_ack(const ByteBuf& b);

/// Sampled fingerprint of a published payload: length plus ~16 evenly spaced
/// bytes folded through splitmix64. Cheap enough for every handoff; strong
/// enough that a frame paired with the wrong or stale slot contents fails.
std::uint64_t payload_digest(const std::uint8_t* data, std::size_t n);

/// Per-rank registered payload window: the zero-copy half of a transfer.
/// The donor publishes the serialized payload under the dispatch nonce and
/// sends only a control frame; the receiver takes the bytes by ownership
/// handoff. Slots are single-take -- a duplicate control frame (fabric
/// duplicate or retransmission racing the ack) finds the slot already
/// consumed and is answered from the nonce dedupe, never by a second read.
///
/// Lifecycle of a slot:
///   publish -> take      (receiver consumed it; donor's release is a no-op)
///   publish -> release   (ack arrived first copy; bytes recycle to the pool)
///   publish -> reclaim   (dest died: bytes return to the donor if the dest
///                         never took them, nullopt if it did -- then the
///                         watchdog's queue reclamation owns recovery)
class PayloadWindow {
 public:
  explicit PayloadWindow(BufferPool* recycle = nullptr)
      : recycle_(recycle) {}

  /// Register `bytes` under `nonce`; returns the slot for the control frame.
  std::uint32_t publish(std::uint64_t nonce, std::vector<std::uint8_t> bytes);

  /// Ownership handoff: move the bytes out if `slot` is live and was
  /// published under `nonce`. Exactly-once -- a second take of the same slot
  /// returns nullopt, as does a nonce mismatch (stale or forged frame).
  std::optional<std::vector<std::uint8_t>> take(std::uint32_t slot,
                                                std::uint64_t nonce);

  /// Like take, but additionally checks the control frame's length and
  /// sampled digest against the slot contents BEFORE consuming it, so a
  /// frame that survived the header CRC with a damaged body cannot destroy
  /// the published payload (the slot stays live for the retransmission).
  std::optional<std::vector<std::uint8_t>> take(std::uint32_t slot,
                                                std::uint64_t nonce,
                                                std::uint64_t length,
                                                std::uint64_t digest);

  /// Donor-side disposal after the ack: drop the slot, recycling untaken
  /// bytes into the buffer pool. Idempotent.
  void release(std::uint32_t slot, std::uint64_t nonce);

  /// Donor-side recovery when the destination is declared dead: the bytes
  /// come back if the dest never took them; nullopt means the dest accepted
  /// the payload before dying.
  std::optional<std::vector<std::uint8_t>> reclaim(std::uint32_t slot,
                                                   std::uint64_t nonce);

  std::size_t published() const {
    return published_.load(std::memory_order_relaxed);
  }
  std::size_t taken() const { return taken_.load(std::memory_order_relaxed); }
  std::size_t live() const;

 private:
  struct Slot {
    std::uint64_t nonce = 0;
    std::vector<std::uint8_t> bytes;
    bool taken = false;
  };

  mutable Mutex m_ AERO_LOCK_NAME("rt.payload_window", 65)
      AERO_ACQUIRED_BEFORE("rt.buffer_pool");
  std::map<std::uint32_t, Slot> slots_ AERO_GUARDED_BY(m_);
  std::uint32_t next_slot_ AERO_GUARDED_BY(m_) = 1;
  BufferPool* recycle_ = nullptr;
  std::atomic<std::size_t> published_ AERO_ATOMIC_ROLE(counter){0};
  std::atomic<std::size_t> taken_ AERO_ATOMIC_ROLE(counter){0};
};

}  // namespace aero

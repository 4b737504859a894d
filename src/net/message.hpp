// Base message type exchanged over a net::Transport.
//
// Protocol layers define concrete messages by deriving from Message; the
// receiving layer recovers the concrete type with dynamic_pointer_cast.
// Messages are immutable after send (shared by sender-side retransmission
// buffers and receivers), hence they travel as shared_ptr<const Message>.
//
// Codec surface: a message that can cross a process boundary declares a
// stable wire type id (wire_type()) and a body encoder (encode()); its
// decoder is registered in the net::CodecRegistry by the owning layer's
// register_wire_codecs(). In-process transports never serialize — the
// codec is exercised only by socket transports and the round-trip tests.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace aqueduct::net {

class Writer;

/// Stable identifier of a concrete message type on the wire. 0 is
/// reserved for "not codec-enabled". Ids are assigned once per type and
/// never reused; see the kWire* constants in each layer's messages header.
using WireTypeId = std::uint32_t;

class Message {
 public:
  Message() = default;
  /// A copy starts without the wire-size memo: it may be mutated before it
  /// is sent, and the memo describes the original's bytes.
  Message(const Message&) noexcept {}
  Message& operator=(const Message&) noexcept {
    wire_size_memo_.store(0, std::memory_order_relaxed);
    return *this;
  }
  virtual ~Message() = default;

  /// Human-readable type tag used in logs and traces.
  virtual std::string type_name() const = 0;

  /// The type's stable wire id, or 0 if the message cannot be serialized
  /// (test-local and process-local types).
  virtual WireTypeId wire_type() const { return 0; }

  /// Appends the message body (no frame header) to `w`. The default
  /// throws CodecError; every type with a non-zero wire_type() overrides
  /// it. Must be the exact inverse of the decoder registered for
  /// wire_type().
  virtual void encode(Writer& w) const;

  /// Wire size in bytes, used for bandwidth accounting in traces and the
  /// protocol-overhead benches; delivery latency is governed by the
  /// link's latency model. For codec-enabled messages the default is the
  /// exact encoded frame length, counted once by a size-only encoding
  /// pass and memoized (a message is immutable once sent, and a shared
  /// heartbeat is sized once for all its destinations). Types outside the
  /// codec, and envelopes around a payload that is, fall back to a
  /// nominal 64 bytes.
  virtual std::size_t wire_size() const;

 private:
  /// 0 = not computed yet (no frame is empty). Relaxed: every thread that
  /// computes it stores the same value.
  mutable std::atomic<std::size_t> wire_size_memo_{0};
};

using MessagePtr = std::shared_ptr<const Message>;

/// Downcasts a received message to the expected concrete type.
/// Returns nullptr if the message is of a different type.
template <typename T>
std::shared_ptr<const T> message_cast(const MessagePtr& msg) {
  return std::dynamic_pointer_cast<const T>(msg);
}

}  // namespace aqueduct::net

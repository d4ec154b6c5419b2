// Path-manager probe protocol constants and wire format (DESIGN.md §11).
//
// The path manager measures each (peer, network) direction with a tiny
// ping/pong exchange carried on a dedicated best-effort network RMS —
// deliberately *below* the subtransport layer, so a probe measures the
// network itself, unaffected by ST caching, piggybacking, or failover.
//
// Ping and pong share one layout:
//   u8 type | u64 seq | i64 t_sent | sized_bytes network-name
// The network name identifies which fabric the ping travelled on, so the
// responder can reply on the same network (fabric registration order may
// differ between hosts, so an index would not be portable).
#pragma once

#include <cstdint>

#include "rms/params.h"
#include "util/time.h"

namespace dash::path {

/// Well-known port the path manager binds for probe traffic. (1 and 2 are
/// the ST control/data ports, 3 is RKOM.)
inline constexpr rms::PortId kPathPort = 4;

enum class ProbeType : std::uint8_t {
  kPing = 1,
  kPong = 2,
};

/// Fixed part of a ping or pong: type, seq, t_sent and the name's length.
inline constexpr std::size_t kProbeBytes = 1 + 8 + 8 + 4;

/// The network RMS request used for probe channels: tiny, best-effort,
/// tolerant of everything. A probe channel must be creatable on any
/// network that can carry data at all — admission must never reject it —
/// so the acceptable set is maximally permissive.
inline rms::Request probe_request() {
  rms::Params desired;
  desired.capacity = 1024;
  desired.max_message_size = 128;
  desired.delay.type = rms::BoundType::kBestEffort;
  desired.delay.a = msec(5);
  desired.delay.b_per_byte = usec(2);
  desired.bit_error_rate = 1e-6;

  rms::Params acceptable = desired;
  acceptable.delay.a = sec(10);
  acceptable.delay.b_per_byte = usec(500);
  acceptable.bit_error_rate = 1.0;
  return rms::Request{desired, acceptable};
}

}  // namespace dash::path

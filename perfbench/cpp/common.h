// Shared pieces of the full-stack benchmark: per-round results, seeded
// payloads and their checks, the span recorder used by traced rounds, and
// the net::Network decorator that times the medium boundary.
//
// Everything here sits outside the library: the benchmark observes the
// stack only through public calls (submit, deliver, engine run, network
// send/sink), so the same files measure any later revision of src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/time.h"

namespace perfbench {

using dash::Bytes;
using dash::BytesView;
using dash::Time;

// ------------------------------------------------------------------ results

/// One named figure of a round: an end-to-end metric particular to the
/// workload (latency, on-time fraction, goodput) or a per-layer metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< base of the figure (messages, packets, ...)
};

/// What one round (fresh world, set-up, timed phase, drain) produced.
struct RoundResult {
  double setup_s = 0.0;   ///< world construction + establishment + warm-up
  double wall_s = 0.0;    ///< timed phase, wall clock
  double cpu_s = 0.0;     ///< process user+sys CPU over the timed phase
  std::uint64_t msgs = 0;    ///< application deliveries in the timed phase
  std::uint64_t allocs = 0;  ///< heap allocations in the timed phase

  std::uint64_t attempted = 0;  ///< submits, calls and stream creations
  std::uint64_t failed = 0;     ///< refused, never delivered, errored
  std::vector<std::string> errors;  ///< correctness-check violations

  /// Submit→deliver delays of latency-bound traffic in ms: simulated delay
  /// of bounded messages on sim workloads, RPC round trip (wall) on UDP.
  std::vector<double> latency_ms;

  std::vector<Metric> e2e;    ///< workload-specific end-to-end figures
  std::vector<Metric> layer;  ///< per-layer figures (traced rounds)

  std::uint64_t input_digest = 0;   ///< hash of every generated input
  std::uint64_t output_digest = 0;  ///< hash of the deterministic outputs

  void error(std::string what) {
    if (errors.size() < 20) errors.push_back(std::move(what));
  }
};

/// FNV-1a style mixing for the input/output digests.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void add_double(double d) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(d));
    add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// ----------------------------------------------------------------- payloads

/// Smallest payload a message can carry: the 8-byte message id.
inline constexpr std::size_t kIdBytes = 8;

/// Message ids: the traffic source in the high bits, its sequence below.
inline std::uint64_t message_id(std::uint64_t source, std::uint64_t seq) {
  return (source << 40) | seq;
}
inline std::uint64_t id_source(std::uint64_t id) { return id >> 40; }
inline std::uint64_t id_seq(std::uint64_t id) { return id & ((1ull << 40) - 1); }

/// Benchmark payload: the message id, then bytes derived from (seed, id).
Bytes make_payload(std::uint64_t seed, std::uint64_t id, std::size_t size);

/// Reads the id of a payload built by make_payload; 0 if too short.
std::uint64_t payload_id(BytesView b);

/// True if `b` is exactly make_payload(seed, payload_id(b), b.size()).
bool payload_ok(std::uint64_t seed, BytesView b);

/// Byte `offset` onward of reliable stream `stream`'s seeded byte sequence.
Bytes stream_bytes(std::uint64_t seed, std::uint64_t stream, std::uint64_t offset,
                   std::size_t n);

/// True if `b` equals stream_bytes(seed, stream, offset, b.size()).
bool stream_bytes_ok(std::uint64_t seed, std::uint64_t stream, std::uint64_t offset,
                     BytesView b);

/// Checks one reliable byte stream as it arrives: in order, exactly the
/// seeded bytes, nothing beyond what was written.
class StreamCheck {
 public:
  StreamCheck(std::uint64_t seed, std::uint64_t stream) : seed_(seed), stream_(stream) {}
  /// Returns false on a content mismatch.
  bool on_data(BytesView b) {
    const bool ok = stream_bytes_ok(seed_, stream_, received_, b);
    received_ += b.size();
    ++chunks_;
    return ok;
  }
  std::uint64_t received() const { return received_; }
  std::uint64_t chunks() const { return chunks_; }

 private:
  std::uint64_t seed_;
  std::uint64_t stream_;
  std::uint64_t received_ = 0;
  std::uint64_t chunks_ = 0;
};

// ------------------------------------------------------------------ helpers

double wall_now();          ///< steady clock, seconds
double cpu_now();           ///< process user+sys CPU, seconds
double peak_rss_mb();       ///< peak resident set (VmHWM) in MB
std::uint64_t allocations();  ///< process heap allocations so far

/// Percentile (0..1) of `v` by nearest rank on a sorted copy; 0 if empty.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// Divides, returning 0 for a zero base.
inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ------------------------------------------------------------------ tracing

/// Span kinds: one per layer boundary the benchmark can see from outside.
enum class SpanKind : std::uint8_t {
  kEngine,     ///< sim::Simulator::run_* / rt::Driver::run_until
  kStSubmit,   ///< rms::Rms::send (ST RMS, stripe)
  kTransportWrite,  ///< transport::StreamSender::write
  kRkomCall,   ///< rkom::RkomNode::call
  kNetSend,    ///< net::Network::send under the decorator
  kNetSink,    ///< the sink upcall out of the medium
  kDeliver,    ///< benchmark port handler / on_data / reply callback
  kCount,
};

const char* span_name(SpanKind k);

/// In-memory span recorder for traced rounds. Spans nest (one thread), so
/// self time is each span's duration minus the durations of its direct
/// children, which is the part of its interval the children cover. Every
/// span feeds the per-kind totals; the first kKeep spans are also kept in
/// memory and written out when the benchmark ends.
class Probe {
 public:
  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    std::uint64_t self_allocs = 0;
  };
  struct Span {
    std::int64_t start_ns = 0;  ///< since the probe was created
    std::int64_t end_ns = 0;
    std::uint64_t msg_id = 0;   ///< 0 when the boundary cannot see one
    std::uint32_t index = 0;    ///< position in the span stream
    std::uint32_t parent = 0;   ///< index of the enclosing span, 0 = none
    SpanKind kind = SpanKind::kEngine;
  };
  static constexpr std::size_t kKeep = 20000;

  Probe();

  /// Spans are recorded only while active: workloads switch the probe on
  /// for the timed phase, so per-message figures share one base.
  void set_active(bool on) { active_ = on; }
  bool active() const { return active_; }

  void begin(SpanKind kind, std::uint64_t msg_id);
  void end();

  const Totals& totals(SpanKind k) const { return totals_[static_cast<int>(k)]; }
  const std::vector<Span>& kept() const { return kept_; }

  /// Medium transit (send → sink) on the simulator clock; packets are
  /// matched by their leading bytes, which carry the network-RMS stream and
  /// sequence number.
  void packet_sent(const dash::net::Packet& p, Time now);
  void packet_arrived(const dash::net::Packet& p, Time now);
  const std::vector<double>& transit_ms() const { return transit_ms_; }

 private:
  struct Open {
    std::int64_t start_ns;
    std::uint64_t start_allocs;
    std::uint64_t child_ns = 0;
    std::uint64_t child_allocs = 0;
    std::uint64_t msg_id;
    std::uint32_t index;
    SpanKind kind;
  };
  std::int64_t now_ns() const;
  static std::uint64_t packet_key(const dash::net::Packet& p);

  std::chrono::steady_clock::time_point origin_;
  bool active_ = false;
  std::vector<Open> stack_;
  Totals totals_[static_cast<int>(SpanKind::kCount)];
  std::vector<Span> kept_;
  std::uint32_t next_index_ = 1;
  std::unordered_map<std::uint64_t, Time> in_flight_;
  std::vector<double> transit_ms_;
};

/// Opens a span for the current scope when an active probe is attached;
/// costs one null check otherwise.
class SpanScope {
 public:
  SpanScope(Probe* probe, SpanKind kind, std::uint64_t msg_id = 0)
      : probe_(probe != nullptr && probe->active() ? probe : nullptr) {
    if (probe_ != nullptr) probe_->begin(kind, msg_id);
  }
  ~SpanScope() {
    if (probe_ != nullptr) probe_->end();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Probe* probe_;
};

/// Writes the kept spans through telemetry::to_chrome_trace.
void write_spans(const Probe& probe, const std::string& path);

/// The medium boundary: sits between a NetRmsFabric and the real network
/// and times send() and the sink upcall when a probe is attached. Every
/// virtual is forwarded and the inner network's down() state is mirrored,
/// so the fabric above sees the same medium it would see without it.
class TracedNetwork final : public dash::net::Network {
 public:
  TracedNetwork(dash::net::Network& inner, Probe* probe);

  void attach(dash::net::HostId host, dash::net::PacketSink sink) override;
  bool attached(dash::net::HostId host) const override;
  void detach(dash::net::HostId host) override;
  bool send(dash::net::Packet p) override;
  bool reserve_stream(std::uint64_t stream, dash::net::HostId src,
                      dash::net::HostId dst, std::uint64_t bytes) override;
  void release_stream(std::uint64_t stream) override;
  void set_down(bool down) override;
  const Stats& stats() const override { return inner_.stats(); }

  dash::net::Network& inner() { return inner_; }
  std::uint64_t sends() const { return sends_; }

 private:
  /// Transitions to down arrive through the inner network's on_down
  /// callback; the way back up is re-read on every forwarded call.
  void sync_down() { down_ = inner_.down(); }

  dash::net::Network& inner_;
  Probe* probe_;
  std::uint64_t sends_ = 0;
};

}  // namespace perfbench

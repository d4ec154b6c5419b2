// Building blocks the workloads share: a host stack assembled from public
// pieces, a checked message flow over one RMS, and the timed-phase meter.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "netrms/fabric.h"
#include "rkom/rkom.h"
#include "rms/rms.h"
#include "sim/cpu_scheduler.h"
#include "st/st.h"
#include "transport/stream.h"

namespace perfbench {

/// One host: CPU scheduler, port registry and subtransport layer, joined
/// to the given fabrics in order.
struct Host {
  dash::rms::HostId id = 0;
  std::unique_ptr<dash::sim::CpuScheduler> cpu;
  dash::rms::PortRegistry ports;
  std::unique_ptr<dash::st::SubtransportLayer> st;
};

std::unique_ptr<Host> make_host(dash::sim::Simulator& sim, dash::rms::HostId id,
                                const std::vector<dash::netrms::NetRmsFabric*>& fabrics,
                                dash::st::StConfig config = {});

/// A stream of benchmark messages over one RMS, checked at the receiver:
/// every payload byte-exact, sequence numbers strictly increasing (and
/// gap-free when the flow is reliable), delay against the requested bound.
class Flow {
 public:
  Flow(std::uint64_t source, std::uint64_t seed, dash::Time bound_a,
       dash::Time bound_b_per_byte, bool reliable, dash::sim::Simulator& sim,
       Probe* probe, RoundResult& result);
  Flow(const Flow&) = delete;
  Flow& operator=(const Flow&) = delete;

  /// The receive port to bind at the target.
  dash::rms::Port& port() { return port_; }
  void set_rms(dash::rms::Rms* rms) { rms_ = rms; }

  /// Submits the next message of `size` bytes.
  void send(std::size_t size);

  /// Counts what never arrived as failed; call after the drain.
  void settle();

  std::uint64_t submitted() const { return submitted_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t ontime() const { return ontime_; }
  std::uint64_t bytes() const { return bytes_; }
  /// Messages this flow attempted, for the on-time base.
  std::uint64_t attempted() const { return submitted_ + refused_; }

  /// Delivery instants (sim clock) are handed here, e.g. to detect when a
  /// flow resumed after an outage.
  void on_delivery(std::function<void(dash::Time)> cb) { delivery_cb_ = std::move(cb); }

 private:
  void receive(dash::rms::Message m);

  std::uint64_t source_;
  std::uint64_t seed_;
  dash::Time bound_a_;
  dash::Time bound_b_;
  bool reliable_;
  dash::sim::Simulator& sim_;
  Probe* probe_;
  RoundResult& result_;
  dash::rms::Rms* rms_ = nullptr;
  dash::rms::Port port_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t expected_ = 1;
  std::uint64_t submitted_ = 0;
  std::uint64_t refused_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t ontime_ = 0;
  std::uint64_t bytes_ = 0;
  std::function<void(dash::Time)> delivery_cb_;
};

/// Calls `fn` at `first` and then every `period` while `fn` returns true.
/// The object must outlive the simulator's run.
class Ticker {
 public:
  Ticker(dash::sim::Simulator& sim, dash::Time first, dash::Time period,
         std::function<bool()> fn);

 private:
  void tick();
  dash::sim::Simulator& sim_;
  dash::Time period_;
  std::function<bool()> fn_;
};

/// Saturating writer of one reliable byte stream: writes chunks of the
/// seeded sizes (cycled) whenever the sender accepts them, up to `limit`
/// bytes, until stopped.
class BulkWriter {
 public:
  BulkWriter(dash::transport::StreamSender& tx, std::uint64_t seed, std::uint64_t stream,
             std::vector<std::size_t> sizes, Probe* probe,
             std::uint64_t limit = ~0ull);
  void start();
  void stop() { on_ = false; }
  std::uint64_t written() const { return written_; }
  bool done() const { return written_ >= limit_; }
  void set_limit(std::uint64_t bytes) { limit_ = bytes; }
  /// Counts each chunk not fully received as failed.
  void settle(RoundResult& r, std::uint64_t received) const;

 private:
  void feed();
  dash::transport::StreamSender& tx_;
  std::uint64_t seed_;
  std::uint64_t stream_;
  std::vector<std::size_t> sizes_;
  Probe* probe_;
  std::uint64_t limit_;
  bool on_ = true;
  std::uint64_t written_ = 0;
  std::uint64_t refused_ = 0;
  std::vector<std::uint64_t> ends_;  ///< cumulative end offset of each chunk
};

/// Receiver-side check of one reliable byte stream (see StreamCheck).
class BulkReader {
 public:
  BulkReader(dash::transport::StreamReceiver& rx, std::uint64_t seed,
             std::uint64_t stream, Probe* probe, RoundResult& r);
  std::uint64_t received() const { return check_.received(); }
  std::uint64_t chunks() const { return check_.chunks(); }

 private:
  StreamCheck check_;
};

/// A closed-loop RKOM caller: at most one call outstanding, the next one
/// issued a seeded think time after the reply. Every reply must equal its
/// args.
class RpcCaller {
 public:
  RpcCaller(dash::sim::Simulator& sim, dash::rkom::RkomNode& client,
            dash::rms::HostId server, std::uint64_t source, std::uint64_t seed,
            std::vector<std::size_t> sizes, std::vector<dash::Time> think, Probe* probe,
            RoundResult& r);
  RpcCaller(const RpcCaller&) = delete;
  RpcCaller& operator=(const RpcCaller&) = delete;

  void start();
  void stop() { on_ = false; }
  /// Stops issuing once this many calls were made.
  void set_limit(std::uint64_t calls) { limit_ = calls; }
  std::uint64_t limit() const { return limit_; }
  std::uint64_t calls() const { return calls_; }
  std::uint64_t replies() const { return replies_; }
  bool idle() const { return calls_ == replies_ + errors_; }
  /// Round trips (simulator clock, ms) of the replies so far.
  const std::vector<double>& rtt_ms() const { return rtt_ms_; }
  void settle(RoundResult& r) const;

 private:
  void call();
  dash::sim::Simulator& sim_;
  dash::rkom::RkomNode& client_;
  dash::rms::HostId server_;
  std::uint64_t source_;
  std::uint64_t seed_;
  std::vector<std::size_t> sizes_;
  std::vector<dash::Time> think_;
  Probe* probe_;
  RoundResult& r_;
  bool on_ = true;
  bool in_flight_ = false;
  std::uint64_t limit_ = ~0ull;
  std::uint64_t calls_ = 0;
  std::uint64_t replies_ = 0;
  std::uint64_t errors_ = 0;
  std::vector<double> rtt_ms_;
};

/// Registers the echo operation the RPC callers invoke.
inline constexpr std::uint64_t kEchoOp = 1;
void register_echo(dash::rkom::RkomNode& server, dash::Time service_time);

/// Measures the timed phase: wall, CPU and allocations between start()
/// and stop(), and the application deliveries counted by the workload.
class TimedPhase {
 public:
  void start(std::uint64_t delivered_so_far, Probe* probe);
  void stop(RoundResult& r, std::uint64_t delivered_so_far, Probe* probe);

 private:
  double wall0_ = 0;
  double cpu0_ = 0;
  std::uint64_t allocs0_ = 0;
  std::uint64_t msgs0_ = 0;
};

}  // namespace perfbench

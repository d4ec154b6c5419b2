// udp_loopback: the unchanged stack on real 127.0.0.1 sockets.
//
// Two node stacks on one UdpNetwork (one socket each) under rt::Driver, so
// every timer fires in wall time. The fabric's cost model is zero: real CPU
// is the only processing cost. Phase A: closed-loop RKOM echo, four callers
// each keeping one call outstanding. Phase B: one reliable stream whose
// RMS capacity and windows (2 MB) sit past the kernel-buffer knee, so
// datagram loss and its retransmissions stay visible. The seed sets the
// RPC argument sizes and the stream's write sizes.
#include "layers.h"
#include "net/udp/udp.h"
#include "rt/driver.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {

namespace {

constexpr int kCallers = 4;
constexpr std::uint64_t kCallsPerCaller = 300;
constexpr std::uint64_t kWarmupBytes = 64 * 1024;
constexpr std::uint64_t kStreamBytes = 1024 * 1024;
constexpr std::uint64_t kStreamCapacity = 2 * 1024 * 1024;
constexpr std::uint64_t kStream = 7;
constexpr dash::Time kPhaseLimit = dash::sec(30);  ///< wall bound per phase

}  // namespace

RoundResult run_udp_loopback(std::uint64_t seed, Probe* probe) {
  using namespace dash;
  RoundResult r;
  if (!net::udp_available()) {
    r.error("UDP loopback sockets are unavailable");
    return r;
  }
  const double setup0 = wall_now();

  // ---- inputs
  Rng rng(seed ^ 0x7564706c6f6f70ull);
  Digest in;
  std::vector<std::vector<std::size_t>> arg_sizes(kCallers);
  for (auto& sizes : arg_sizes) {
    sizes.resize(kCallsPerCaller + 1);
    for (auto& s : sizes) in.add(s = static_cast<std::size_t>(rng.range(64, 512)));
  }
  std::vector<std::size_t> chunk_sizes(256);
  for (auto& c : chunk_sizes) in.add(c = static_cast<std::size_t>(rng.range(1024, 16384)));
  r.input_digest = in.value();

  // ---- world
  sim::Simulator sim;
  rt::Driver driver(sim);
  net::UdpNetwork udp(driver);
  TracedNetwork medium(udp, probe);
  netrms::NetRmsFabric fabric(sim, medium, netrms::CostModel{0, 0, 0, 0, 0});
  auto client_host = make_host(sim, 1, {&fabric});
  auto server_host = make_host(sim, 2, {&fabric});

  Layers layers;
  layers.sim = &sim;
  layers.driver = &driver;
  layers.media = {&medium};
  layers.udps = {&udp};
  layers.sts = {client_host->st.get(), server_host->st.get()};

  rkom::RkomNode client(*client_host->st, client_host->ports);
  rkom::RkomNode server(*server_host->st, server_host->ports);
  register_echo(server, 0);
  layers.rkoms = {&client, &server};
  std::vector<std::unique_ptr<RpcCaller>> callers;
  for (int i = 0; i < kCallers; ++i) {
    callers.push_back(std::make_unique<RpcCaller>(sim, client, 2, 200 + i, seed,
                                                  arg_sizes[i], std::vector<Time>{0},
                                                  probe, r));
  }

  transport::StreamConfig cfg;
  cfg.receive_buffer = kStreamCapacity;
  cfg.reliable_window = kStreamCapacity;
  transport::StreamReceiver rx(*server_host->st, server_host->ports, 60, cfg);
  BulkReader reader(rx, seed, kStream, probe, r);
  transport::StreamSender tx(*client_host->st, client_host->ports, rms::Label{2, 60}, cfg,
                             transport::bulk_data_request(kStreamCapacity, 4096));
  BulkWriter writer(tx, seed, kStream, chunk_sizes, probe, kWarmupBytes);
  ++r.attempted;
  if (!tx.ok()) {
    ++r.failed;
    r.error("stream creation failed: " + tx.creation_error().message);
    return r;
  }
  layers.senders = {&tx};
  layers.receivers = {&rx};

  auto replies = [&] {
    std::uint64_t n = 0;
    for (const auto& c : callers) n += c->replies();
    return n;
  };
  auto callers_done = [&] {
    for (const auto& c : callers) {
      if (c->calls() < c->limit() || !c->idle()) return false;
    }
    return true;
  };

  // ---- set-up: RKOM channel (one call) and an established, warm stream
  for (auto& c : callers) c->set_limit(c.get() == callers[0].get() ? 1 : 0);
  callers[0]->start();
  writer.start();
  driver.run_until([&] { return callers_done() && reader.received() >= kWarmupBytes; },
                   kPhaseLimit);
  r.setup_s = wall_now() - setup0;
  const Counters before = layers.snapshot();

  // ---- phase A: closed-loop RPC
  TimedPhase phase;
  const std::size_t rtt0 = callers[0]->rtt_ms().size();
  phase.start(replies(), probe);
  for (auto& c : callers) {
    c->set_limit(c.get() == callers[0].get() ? kCallsPerCaller + 1 : kCallsPerCaller);
    c->start();
  }
  {
    SpanScope engine(probe, SpanKind::kEngine);
    driver.run_until(callers_done, kPhaseLimit);
  }
  phase.stop(r, replies(), probe);
  for (const auto& c : callers) {
    const auto& rtt = c->rtt_ms();
    r.latency_ms.insert(r.latency_ms.end(),
                        rtt.begin() + (c.get() == callers[0].get() ? rtt0 : 0), rtt.end());
  }

  // ---- phase B: one reliable stream
  const std::uint64_t bytes0 = reader.received();
  const double wall_b0 = wall_now();
  writer.set_limit(kWarmupBytes + kStreamBytes);
  phase.start(reader.chunks(), probe);
  writer.start();
  {
    SpanScope engine(probe, SpanKind::kEngine);
    driver.run_until(
        [&] { return writer.done() && reader.received() >= writer.written() && tx.drained(); },
        kPhaseLimit);
  }
  phase.stop(r, reader.chunks(), probe);
  const double wall_b = wall_now() - wall_b0;
  const std::uint64_t stream_bytes = reader.received() - bytes0;
  const Counters after = layers.snapshot();

  // ---- drain and checks
  writer.stop();
  driver.run_until([&] { return callers_done() && tx.drained(); }, sec(2));
  for (const auto& c : callers) c->settle(r);
  writer.settle(r, reader.received());

  // A call is on time when its round trip stays within twice the RKOM
  // low-delay bound A: request and reply each ride a low-delay RMS.
  const double rpc_bound_ms = 2 * to_millis(rkom::RkomConfig{}.low_delay_a);
  std::uint64_t ontime = 0;
  for (double ms : r.latency_ms) ontime += ms <= rpc_bound_ms ? 1 : 0;
  const std::uint64_t phase_a_calls = kCallers * kCallsPerCaller;
  const auto n = static_cast<std::uint64_t>(r.latency_ms.size());
  r.e2e.push_back({"ontime_frac", ratio(static_cast<double>(ontime),
                                        static_cast<double>(phase_a_calls)),
                   "ratio", phase_a_calls});
  r.e2e.push_back({"rpc_p50_us", percentile(r.latency_ms, 0.5) * 1e3, "us", n});
  r.e2e.push_back({"rpc_p99_us", percentile(r.latency_ms, 0.99) * 1e3, "us", n});
  r.e2e.push_back({"goodput_MBps", ratio(static_cast<double>(stream_bytes), wall_b) / 1e6,
                   "MB/s", stream_bytes});
  if (probe != nullptr) {
    add_layer_metrics(r, layers, before, after, r.msgs, r.wall_s);
  }
  Digest out;
  out.add(reader.received());
  r.output_digest = out.value();  // wall-clock run: only the byte count repeats
  return r;
}

}  // namespace perfbench

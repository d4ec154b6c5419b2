// sim_mixed_wan: dashsim's "mixed" traffic on the T1 internet dumbbell.
//
// Four hosts (1,3 left of the trunk, 2,4 right). Four statistical-bound
// voice calls between hosts 1 and 2, a saturating reliable bulk stream
// 1→4 with ack-based capacity and 500-byte messages, and a closed-loop
// RKOM caller 3→2 (128-byte args, 200 µs service). The seed sets the voice
// frame phases, the bulk write sizes and the RPC think times.
#include "layers.h"
#include "net/internet.h"
#include "workload/workload.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {

namespace {

constexpr int kCalls = 4;
constexpr dash::Time kWarmup = dash::sec(2);
constexpr dash::Time kTimed = dash::sec(100);
constexpr dash::Time kDrain = dash::sec(5);
constexpr std::uint64_t kBulkStream = 1;
constexpr std::uint64_t kRpcSource = 100;

}  // namespace

RoundResult run_sim_mixed_wan(std::uint64_t seed, Probe* probe) {
  using namespace dash;
  RoundResult r;
  const double setup0 = wall_now();

  // ---- inputs
  Rng rng(seed ^ 0x6d69786564ull);
  Digest in;
  std::vector<Time> voice_phase(kCalls);
  for (auto& p : voice_phase) in.add(p = static_cast<Time>(rng.below(msec(20))));
  std::vector<std::size_t> chunk_sizes(1024);
  for (auto& c : chunk_sizes) in.add(c = static_cast<std::size_t>(rng.range(512, 8192)));
  std::vector<Time> think(4096);
  for (auto& t : think) in.add(t = 1 + static_cast<Time>(rng.exponential(0.025) * 1e9));
  r.input_digest = in.value();

  // ---- world
  sim::Simulator sim;
  net::NetworkTraits traits = net::internet_traits();
  traits.bit_error_rate = 0.0;  // as dashsim runs it: no line noise
  auto wan = net::make_dumbbell(sim, traits, seed, {1, 3}, {2, 4});
  TracedNetwork medium(*wan, probe);
  netrms::NetRmsFabric fabric(sim, medium);
  std::vector<std::unique_ptr<Host>> hosts;
  for (rms::HostId h = 1; h <= 4; ++h) hosts.push_back(make_host(sim, h, {&fabric}));
  auto host = [&](rms::HostId h) -> Host& { return *hosts.at(h - 1); };

  Layers layers;
  layers.sim = &sim;
  layers.media = {&medium};
  layers.internets = {wan.get()};
  for (auto& h : hosts) layers.sts.push_back(h->st.get());

  // Voice: statistical bound, 160-byte frames every 20 ms.
  bool sending = true;
  const rms::Request voice = workload::voice_request(msec(40));
  std::vector<std::unique_ptr<Flow>> calls;
  std::vector<std::unique_ptr<rms::Rms>> call_rms;
  std::vector<std::unique_ptr<Ticker>> tickers;
  for (int i = 0; i < kCalls; ++i) {
    const rms::HostId from = 1 + (i % 2);
    const rms::HostId to = 2 - (i % 2);
    const rms::PortId port = 70 + static_cast<rms::PortId>(i);
    auto flow = std::make_unique<Flow>(i + 1, seed, voice.desired.delay.a,
                                       voice.desired.delay.b_per_byte, false, sim, probe, r);
    host(to).ports.bind(port, &flow->port());
    ++r.attempted;
    auto created = host(from).st->create(voice, {to, port});
    if (!created.ok()) {
      ++r.failed;
      continue;
    }
    flow->set_rms(created.value().get());
    call_rms.push_back(std::move(created).value());
    Flow* f = flow.get();
    tickers.push_back(std::make_unique<Ticker>(
        sim, msec(500) + voice_phase[i], workload::kVoiceFrameInterval, [f, &sending] {
          if (sending) f->send(workload::kVoiceFrameBytes);
          return sending;
        }));
    calls.push_back(std::move(flow));
  }

  // Bulk 1→4: reliable, ack-based capacity, saturating.
  transport::StreamConfig cfg;
  cfg.message_size = 500;
  transport::StreamReceiver rx(*host(4).st, host(4).ports, 60, cfg);
  BulkReader reader(rx, seed, kBulkStream, probe, r);
  transport::StreamSender tx(*host(1).st, host(1).ports, rms::Label{4, 60}, cfg,
                             transport::bulk_data_request(16 * 1024, cfg.message_size));
  BulkWriter writer(tx, seed, kBulkStream, chunk_sizes, probe);
  ++r.attempted;
  if (tx.ok()) {
    writer.start();
    layers.senders = {&tx};
    layers.receivers = {&rx};
  } else {
    ++r.failed;
  }

  // RPC 3→2, closed loop.
  rkom::RkomNode client(*host(3).st, host(3).ports);
  rkom::RkomNode server(*host(2).st, host(2).ports);
  register_echo(server, usec(200));
  RpcCaller caller(sim, client, 2, kRpcSource, seed, {128}, think, probe, r);
  caller.start();
  layers.rkoms = {&client, &server};

  auto delivered = [&] {
    std::uint64_t n = reader.chunks() + caller.replies();
    for (const auto& c : calls) n += c->delivered();
    return n;
  };

  // ---- warm-up, timed phase, drain
  sim.run_until(kWarmup);
  r.setup_s = wall_now() - setup0;
  const Counters before = layers.snapshot();
  const std::uint64_t bulk0 = reader.received();
  TimedPhase phase;
  phase.start(delivered(), probe);
  {
    SpanScope engine(probe, SpanKind::kEngine);
    sim.run_until(kWarmup + kTimed);
  }
  phase.stop(r, delivered(), probe);
  const Counters after = layers.snapshot();
  const std::uint64_t bulk_bytes = reader.received() - bulk0;

  sending = false;
  writer.stop();
  caller.stop();
  sim.run_until(kWarmup + kTimed + kDrain);

  // ---- checks and figures
  std::uint64_t ontime = 0;
  std::uint64_t bounded = 0;
  for (const auto& c : calls) {
    c->settle();
    ontime += c->ontime();
    bounded += c->attempted();
  }
  writer.settle(r, reader.received());
  caller.settle(r);

  const auto n = static_cast<std::uint64_t>(r.latency_ms.size());
  r.e2e.push_back({"ontime_frac", ratio(static_cast<double>(ontime),
                                        static_cast<double>(bounded)), "ratio", bounded});
  r.e2e.push_back({"sim_delay_p50_ms", percentile(r.latency_ms, 0.5), "ms", n});
  r.e2e.push_back({"sim_delay_p99_ms", percentile(r.latency_ms, 0.99), "ms", n});
  r.e2e.push_back({"sim_goodput_kBps",
                   static_cast<double>(bulk_bytes) / to_seconds(kTimed) / 1e3, "kB/s",
                   bulk_bytes});
  if (probe != nullptr) {
    add_layer_metrics(r, layers, before, after, r.msgs, to_seconds(kTimed));
  }

  Digest out;
  digest_counters(out, Counters{}, layers.snapshot());
  out.add(r.msgs);
  out.add(bulk_bytes);
  out.add(reader.received());
  out.add(caller.replies());
  for (double d : r.latency_ms) out.add_double(d);
  for (const auto& m : r.e2e) out.add_double(m.value);
  r.output_digest = out.value();
  return r;
}

}  // namespace perfbench

// sim_failover: two Ethernets, the path manager in make-before-break mode,
// and repeated silent outages alternating between the networks.
//
// Host 1 sends to host 2 over two reliable deterministic-bound periodic
// streams (handoff replay keeps them exactly-once across failover), one
// model-paced (CapacityMode::kModel) transport stream, and a sequence of
// striped bulk transfers: each slot opens a fresh StripedStream across both
// networks while the slot's outage hits one of them, so every stripe loses
// at most one subpath. The seed sets the outage times and lengths, the
// periodic message sizes, the stripe payload sizes and the write sizes.
#include "fault/fault.h"
#include "layers.h"
#include "net/ethernet.h"
#include "node/node.h"
#include "path/stripe.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {

namespace {

constexpr int kSlots = 8;
constexpr int kPeriodicFlows = 2;
constexpr int kStripeMessages = 700;
constexpr dash::Time kStripeEvery = dash::msec(2);
constexpr dash::Time kPeriod = dash::msec(10);
constexpr dash::Time kSlot = dash::sec(3);
constexpr dash::Time kWarmup = dash::msec(500);
constexpr dash::Time kTimed = kSlot * kSlots;
constexpr dash::Time kDrain = dash::sec(4);
constexpr std::uint64_t kBulkStream = 9;

dash::rms::Request periodic_request() {
  dash::rms::Params desired;
  // Deterministic admission reserves the implied bandwidth C/D (§2.2), so
  // the capacity stays small enough for both streams to fit on either
  // network: make-before-break must be able to stage each one elsewhere.
  desired.capacity = 4 * 1024;
  desired.max_message_size = 1024;
  desired.quality.reliable = true;
  desired.delay.type = dash::rms::BoundType::kDeterministic;
  desired.delay.a = dash::msec(20);
  desired.delay.b_per_byte = dash::usec(5);
  desired.bit_error_rate = 1e-6;
  dash::rms::Params acceptable = desired;
  acceptable.delay.a = dash::sec(5);
  acceptable.delay.b_per_byte = dash::usec(500);
  acceptable.bit_error_rate = 1.0;
  acceptable.capacity = 1024;
  acceptable.max_message_size = 64;
  return {desired, acceptable};
}

dash::rms::Request stripe_request() {
  dash::rms::Request r = periodic_request();
  r.desired.capacity = 32 * 1024;
  r.desired.delay.type = dash::rms::BoundType::kBestEffort;
  r.acceptable.delay.type = dash::rms::BoundType::kBestEffort;
  return r;
}

}  // namespace

RoundResult run_sim_failover(std::uint64_t seed, Probe* probe) {
  using namespace dash;
  RoundResult r;
  const double setup0 = wall_now();

  // ---- inputs
  Rng rng(seed ^ 0x6661696c6f766572ull);
  Digest in;
  struct Outage {
    Time start;
    Time end;
  };
  std::vector<Outage> outages;
  fault::FaultPlan plan[2];
  for (int k = 0; k < kSlots; ++k) {
    const Time start = kWarmup + k * kSlot + msec(1000) + static_cast<Time>(rng.below(msec(500)));
    const Time end = start + msec(300) + static_cast<Time>(rng.below(msec(400)));
    plan[k % 2].outage(start, end);
    outages.push_back({start, end});
    in.add(static_cast<std::uint64_t>(start));
    in.add(static_cast<std::uint64_t>(end));
  }
  std::vector<std::vector<std::size_t>> sizes(kPeriodicFlows + 2);
  for (auto& v : sizes) {
    v.resize(512);
    for (auto& s : v) in.add(s = static_cast<std::size_t>(rng.range(128, 1024)));
  }
  std::vector<std::size_t> chunk_sizes(512);
  for (auto& c : chunk_sizes) in.add(c = static_cast<std::size_t>(rng.range(512, 8192)));
  r.input_digest = in.value();

  // ---- world
  sim::Simulator sim;
  net::EthernetNetwork eth_a(sim, net::ethernet_traits("eth-a"), seed);
  net::EthernetNetwork eth_b(sim, net::ethernet_traits("eth-b"), seed + 1);
  fault::FaultInjector faults_a(sim, plan[0], seed);
  fault::FaultInjector faults_b(sim, plan[1], seed + 1);
  faults_a.attach(eth_a);
  faults_b.attach(eth_b);
  TracedNetwork medium_a(eth_a, probe);
  TracedNetwork medium_b(eth_b, probe);
  netrms::NetRmsFabric fab_a(sim, medium_a);
  netrms::NetRmsFabric fab_b(sim, medium_b);

  node::NodeConfig cfg;
  cfg.path.make_before_break = true;
  cfg.path.probe_interval = msec(50);
  cfg.path.probe_timeout = msec(40);
  cfg.path.degraded_after = 1;
  cfg.path.unhealthy_after = 2;
  node::DashNode sender(sim, 1, cfg);
  node::DashNode receiver(sim, 2, cfg);
  for (auto* fab : {&fab_a, &fab_b}) {
    sender.join(*fab);
    receiver.join(*fab);
  }
  path::StripeEndpoint endpoint(sim, receiver.ports());

  Layers layers;
  layers.sim = &sim;
  layers.media = {&medium_a, &medium_b};
  layers.ethernets = {&eth_a, &eth_b};
  layers.sts = {&sender.st(), &receiver.st()};
  layers.paths = {sender.path(), receiver.path()};
  layers.faults = {&faults_a, &faults_b};

  // Periodic deterministic-bound streams; detection is read off the first
  // delivery after each home-network outage began.
  bool sending = true;
  const rms::Request periodic = periodic_request();
  std::vector<std::unique_ptr<Flow>> flows;
  std::vector<std::unique_ptr<rms::Rms>> streams;
  std::vector<std::unique_ptr<Ticker>> tickers;
  std::vector<double> detect_ms;
  std::size_t next_outage = 0;
  for (int i = 0; i < kPeriodicFlows; ++i) {
    auto flow = std::make_unique<Flow>(i + 1, seed, periodic.desired.delay.a,
                                       periodic.desired.delay.b_per_byte, true, sim, probe, r);
    receiver.bind(50 + i, &flow->port());
    ++r.attempted;
    auto created = sender.create_stream(periodic, {2, static_cast<rms::PortId>(50 + i)});
    if (!created.ok()) {
      ++r.failed;
      r.error("periodic stream rejected: " + created.error().message);
      flows.push_back(std::move(flow));
      continue;
    }
    flow->set_rms(created.value().get());
    streams.push_back(std::move(created).value());
    Flow* f = flow.get();
    const std::vector<std::size_t>& sz = sizes[i];
    tickers.push_back(std::make_unique<Ticker>(
        sim, msec(100) + msec(3) * i, kPeriod, [f, &sz, &sending] {
          if (sending) f->send(sz[f->attempted() % sz.size()]);
          return sending;
        }));
    if (i == 0) {
      flow->on_delivery([&](Time now) {
        // Outages on network A (even slots) hit these streams' home path.
        while (next_outage < outages.size() &&
               (next_outage % 2 == 1 || now > outages[next_outage].end + sec(1))) {
          ++next_outage;
        }
        if (next_outage < outages.size() && now > outages[next_outage].start + msec(5)) {
          detect_ms.push_back(to_millis(now - outages[next_outage].start));
          ++next_outage;
        }
      });
    }
    flows.push_back(std::move(flow));
  }

  // Model-paced reliable transport stream 1→2, saturating.
  transport::StreamConfig tcfg;
  tcfg.capacity = transport::CapacityMode::kModel;
  transport::StreamReceiver rx(receiver.st(), receiver.ports(), 70, tcfg);
  BulkReader reader(rx, seed, kBulkStream, probe, r);
  transport::StreamSender tx(sender.st(), sender.ports(), rms::Label{2, 70}, tcfg,
                             transport::bulk_data_request(32 * 1024, 1024));
  BulkWriter writer(tx, seed, kBulkStream, chunk_sizes, probe);
  ++r.attempted;
  if (tx.ok()) {
    writer.start();
    layers.senders = {&tx};
    layers.receivers = {&rx};
  } else {
    ++r.failed;
    r.error("model-paced stream rejected: " + tx.creation_error().message);
  }

  // One striped transfer per slot, overlapping that slot's outage.
  const rms::Request striped = stripe_request();
  std::vector<std::unique_ptr<Flow>> stripe_flows;
  std::vector<std::unique_ptr<path::StripedStream>> stripes;
  std::vector<std::unique_ptr<Ticker>> stripe_tickers;
  for (int k = 0; k < kSlots; ++k) {
    sim.at(kWarmup + k * kSlot + msec(200), [&, k] {
      const rms::PortId port = 80 + static_cast<rms::PortId>(k);
      auto flow = std::make_unique<Flow>(kPeriodicFlows + 1 + k, seed, kTimeNever, 0, true,
                                         sim, probe, r);
      receiver.bind(port, &flow->port());
      ++r.attempted;
      auto created = path::StripedStream::create(sender.st(), sender.path(), striped,
                                                 {2, port});
      if (!created.ok()) {
        ++r.failed;
        r.error("stripe rejected: " + created.error().message);
        stripe_flows.push_back(std::move(flow));
        return;
      }
      flow->set_rms(created.value().get());
      layers.stripes.push_back(created.value().get());
      stripes.push_back(std::move(created).value());
      Flow* f = flow.get();
      const std::vector<std::size_t>& sz = sizes[kPeriodicFlows + k % 2];
      stripe_tickers.push_back(std::make_unique<Ticker>(sim, sim.now(), kStripeEvery, [f, &sz] {
        f->send(sz[f->attempted() % sz.size()]);
        return f->attempted() < kStripeMessages;
      }));
      stripe_flows.push_back(std::move(flow));
    });
  }

  auto delivered = [&] {
    std::uint64_t n = reader.chunks();
    for (const auto& f : flows) n += f->delivered();
    for (const auto& f : stripe_flows) n += f->delivered();
    return n;
  };
  auto payload_bytes = [&] {
    std::uint64_t n = reader.received();
    for (const auto& f : stripe_flows) n += f->bytes();
    return n;
  };

  // ---- warm-up, timed phase, drain
  sim.run_until(kWarmup);
  r.setup_s = wall_now() - setup0;
  const Counters before = layers.snapshot();
  const std::uint64_t bytes0 = payload_bytes();
  TimedPhase phase;
  phase.start(delivered(), probe);
  {
    SpanScope engine(probe, SpanKind::kEngine);
    sim.run_until(kWarmup + kTimed);
  }
  phase.stop(r, delivered(), probe);
  const Counters after = layers.snapshot();
  const std::uint64_t goodput_bytes = payload_bytes() - bytes0;

  sending = false;
  writer.stop();
  sim.run_until(kWarmup + kTimed + kDrain);

  // ---- checks and figures
  std::uint64_t ontime = 0;
  std::uint64_t bounded = 0;
  for (const auto& f : flows) {
    f->settle();
    ontime += f->ontime();
    bounded += f->attempted();
  }
  for (const auto& f : stripe_flows) f->settle();
  writer.settle(r, reader.received());

  const auto n = static_cast<std::uint64_t>(r.latency_ms.size());
  r.e2e.push_back({"ontime_frac", ratio(static_cast<double>(ontime),
                                        static_cast<double>(bounded)), "ratio", bounded});
  r.e2e.push_back({"sim_delay_p50_ms", percentile(r.latency_ms, 0.5), "ms", n});
  r.e2e.push_back({"sim_delay_p99_ms", percentile(r.latency_ms, 0.99), "ms", n});
  r.e2e.push_back({"sim_goodput_kBps",
                   static_cast<double>(goodput_bytes) / to_seconds(kTimed) / 1e3, "kB/s",
                   goodput_bytes});
  if (probe != nullptr) {
    add_layer_metrics(r, layers, before, after, r.msgs, to_seconds(kTimed));
    double sum = 0;
    for (double d : detect_ms) sum += d;
    r.layer.push_back({"path.detect_ms", ratio(sum, static_cast<double>(detect_ms.size())),
                       "ms", detect_ms.size()});
  }

  Digest out;
  digest_counters(out, Counters{}, layers.snapshot());
  out.add(r.msgs);
  out.add(payload_bytes());
  for (double d : r.latency_ms) out.add_double(d);
  for (double d : detect_ms) out.add_double(d);
  for (const auto& m : r.e2e) out.add_double(m.value);
  r.output_digest = out.value();
  return r;
}

}  // namespace perfbench

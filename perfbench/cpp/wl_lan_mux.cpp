// sim_lan_mux: many small best-effort ST streams on one 10 Mb/s Ethernet.
//
// Eight hosts; each sends to its neighbour (h → h%8+1) over six
// best-effort ST RMS carrying small messages (32–256 B, Poisson) and one
// stream of 8–16 KB messages that the ST fragments. The offered load stays
// well below the medium's capacity, so per-message cost dominates: ST
// submit, piggyback flush, demux, fragmentation and reassembly. The seed
// sets every arrival time and size.
#include "layers.h"
#include "net/ethernet.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {

namespace {

constexpr int kHosts = 8;
constexpr int kSmallPerHost = 6;
constexpr double kSmallRate = 60.0;  ///< messages/s per small stream
constexpr double kLargeRate = 2.0;   ///< messages/s per fragmenting stream
constexpr dash::Time kWarmup = dash::sec(1);
constexpr dash::Time kTimed = dash::sec(40);
constexpr dash::Time kDrain = dash::sec(2);

dash::rms::Request best_effort(std::uint64_t capacity, std::uint64_t max_message,
                               dash::Time a, dash::Time b_per_byte) {
  dash::rms::Params p;
  p.capacity = capacity;
  p.max_message_size = max_message;
  p.delay.type = dash::rms::BoundType::kBestEffort;
  p.delay.a = a;
  p.delay.b_per_byte = b_per_byte;
  p.bit_error_rate = 1e-6;
  dash::rms::Params acceptable = p;
  acceptable.capacity = max_message;
  acceptable.delay.a = dash::sec(10);
  acceptable.delay.b_per_byte = dash::msec(1);
  acceptable.bit_error_rate = 1.0;
  return {p, acceptable};
}

/// Replays a pre-generated (time, size) schedule into one flow.
class Arrivals {
 public:
  struct Entry {
    dash::Time at;
    std::size_t size;
  };
  Arrivals(dash::sim::Simulator& sim, Flow& flow, std::vector<Entry> entries)
      : sim_(sim), flow_(flow), entries_(std::move(entries)) {
    if (!entries_.empty()) sim_.at(entries_.front().at, [this] { fire(); });
  }

 private:
  void fire() {
    flow_.send(entries_[next_].size);
    if (++next_ < entries_.size()) sim_.at(entries_[next_].at, [this] { fire(); });
  }
  dash::sim::Simulator& sim_;
  Flow& flow_;
  std::vector<Entry> entries_;
  std::size_t next_ = 0;
};

std::vector<Arrivals::Entry> poisson(dash::Rng& rng, Digest& in, double rate,
                                     std::size_t lo, std::size_t hi, dash::Time end) {
  std::vector<Arrivals::Entry> out;
  dash::Time t = dash::msec(100);
  for (;;) {
    t += 1 + static_cast<dash::Time>(rng.exponential(1.0 / rate) * 1e9);
    if (t >= end) break;
    const auto size = static_cast<std::size_t>(
        rng.range(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
    in.add(static_cast<std::uint64_t>(t));
    in.add(size);
    out.push_back({t, size});
  }
  return out;
}

}  // namespace

RoundResult run_sim_lan_mux(std::uint64_t seed, Probe* probe) {
  using namespace dash;
  RoundResult r;
  const double setup0 = wall_now();

  // ---- inputs: every arrival, generated before the world exists
  Rng rng(seed ^ 0x6c616e6d7578ull);
  Digest in;
  std::vector<std::vector<Arrivals::Entry>> schedules;
  for (int h = 0; h < kHosts; ++h) {
    for (int k = 0; k < kSmallPerHost; ++k) {
      schedules.push_back(poisson(rng, in, kSmallRate, 32, 256, kWarmup + kTimed));
    }
    schedules.push_back(poisson(rng, in, kLargeRate, 8 * 1024, 16 * 1024, kWarmup + kTimed));
  }
  r.input_digest = in.value();
  // Every message has a bound: size the sample vector once, so the peak
  // resident set does not depend on where its doubling lands.
  std::size_t arrivals = 0;
  for (const auto& s : schedules) arrivals += s.size();
  r.latency_ms.reserve(arrivals);

  // ---- world
  sim::Simulator sim;
  net::EthernetNetwork lan(sim, net::ethernet_traits(), seed);
  TracedNetwork medium(lan, probe);
  netrms::NetRmsFabric fabric(sim, medium);
  std::vector<std::unique_ptr<Host>> hosts;
  for (rms::HostId h = 1; h <= kHosts; ++h) hosts.push_back(make_host(sim, h, {&fabric}));

  Layers layers;
  layers.sim = &sim;
  layers.media = {&medium};
  layers.ethernets = {&lan};
  for (auto& h : hosts) layers.sts.push_back(h->st.get());

  const rms::Request small = best_effort(8 * 1024, 256, msec(20), usec(10));
  const rms::Request large = best_effort(64 * 1024, 16 * 1024, msec(100), usec(10));
  std::vector<std::unique_ptr<Flow>> flows;
  std::vector<std::unique_ptr<rms::Rms>> streams;
  std::vector<std::unique_ptr<Arrivals>> sources;
  for (int h = 0; h < kHosts; ++h) {
    const rms::HostId from = h + 1;
    const rms::HostId to = (h + 1) % kHosts + 1;
    for (int k = 0; k <= kSmallPerHost; ++k) {
      const bool is_large = k == kSmallPerHost;
      const rms::Request& req = is_large ? large : small;
      const std::size_t index = flows.size();
      const rms::PortId port = 100 + static_cast<rms::PortId>(k);
      auto flow = std::make_unique<Flow>(index + 1, seed, req.desired.delay.a,
                                         req.desired.delay.b_per_byte, false, sim, probe, r);
      hosts[to - 1]->ports.bind(port, &flow->port());
      ++r.attempted;
      auto created = hosts[from - 1]->st->create(req, {to, port});
      if (!created.ok()) {
        ++r.failed;
      } else {
        flow->set_rms(created.value().get());
        streams.push_back(std::move(created).value());
        sources.push_back(std::make_unique<Arrivals>(sim, *flow, schedules[index]));
      }
      flows.push_back(std::move(flow));
    }
  }

  auto delivered = [&] {
    std::uint64_t n = 0;
    for (const auto& f : flows) n += f->delivered();
    return n;
  };

  // ---- warm-up, timed phase, drain
  sim.run_until(kWarmup);
  r.setup_s = wall_now() - setup0;
  const Counters before = layers.snapshot();
  TimedPhase phase;
  phase.start(delivered(), probe);
  {
    SpanScope engine(probe, SpanKind::kEngine);
    sim.run_until(kWarmup + kTimed);
  }
  phase.stop(r, delivered(), probe);
  const Counters after = layers.snapshot();
  sim.run_until(kWarmup + kTimed + kDrain);

  // ---- checks and figures
  std::uint64_t ontime = 0;
  std::uint64_t bounded = 0;
  for (const auto& f : flows) {
    f->settle();
    ontime += f->ontime();
    bounded += f->attempted();
  }
  const auto n = static_cast<std::uint64_t>(r.latency_ms.size());
  r.e2e.push_back({"ontime_frac", ratio(static_cast<double>(ontime),
                                        static_cast<double>(bounded)), "ratio", bounded});
  r.e2e.push_back({"sim_delay_p50_ms", percentile(r.latency_ms, 0.5), "ms", n});
  r.e2e.push_back({"sim_delay_p99_ms", percentile(r.latency_ms, 0.99), "ms", n});
  if (probe != nullptr) {
    add_layer_metrics(r, layers, before, after, r.msgs, to_seconds(kTimed));
  }

  Digest out;
  digest_counters(out, Counters{}, layers.snapshot());
  out.add(r.msgs);
  for (const auto& f : flows) out.add(f->bytes());
  for (double d : r.latency_ms) out.add_double(d);
  for (const auto& m : r.e2e) out.add_double(m.value);
  r.output_digest = out.value();
  return r;
}

}  // namespace perfbench

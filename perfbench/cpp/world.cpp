#include "world.h"

#include <algorithm>
#include <string>

namespace perfbench {

std::unique_ptr<Host> make_host(dash::sim::Simulator& sim, dash::rms::HostId id,
                                const std::vector<dash::netrms::NetRmsFabric*>& fabrics,
                                dash::st::StConfig config) {
  auto h = std::make_unique<Host>();
  h->id = id;
  h->cpu = std::make_unique<dash::sim::CpuScheduler>(sim, dash::sim::CpuPolicy::kEdf);
  for (auto* f : fabrics) f->register_host(id, *h->cpu, h->ports);
  h->st = std::make_unique<dash::st::SubtransportLayer>(sim, id, *h->cpu, h->ports, config);
  for (auto* f : fabrics) h->st->add_network(*f);
  return h;
}

Flow::Flow(std::uint64_t source, std::uint64_t seed, dash::Time bound_a,
           dash::Time bound_b_per_byte, bool reliable, dash::sim::Simulator& sim,
           Probe* probe, RoundResult& result)
    : source_(source),
      seed_(seed),
      bound_a_(bound_a),
      bound_b_(bound_b_per_byte),
      reliable_(reliable),
      sim_(sim),
      probe_(probe),
      result_(result) {
  port_.set_handler([this](dash::rms::Message m) { receive(std::move(m)); });
}

void Flow::send(std::size_t size) {
  const std::uint64_t id = message_id(source_, next_seq_);
  dash::rms::Message m;
  m.data = make_payload(seed_, id, size);
  dash::Status st;
  {
    SpanScope span(probe_, SpanKind::kStSubmit, id);
    st = rms_ == nullptr ? dash::make_error(dash::Errc::kClosed, "no stream")
                         : rms_->send(std::move(m));
  }
  if (st.ok()) {
    ++next_seq_;
    ++submitted_;
  } else {
    ++refused_;
  }
}

void Flow::receive(dash::rms::Message m) {
  const std::uint64_t id = payload_id(m.data.view());
  SpanScope span(probe_, SpanKind::kDeliver, id);
  const std::uint64_t seq = id_seq(id);
  if (id_source(id) != source_ || !payload_ok(seed_, m.data.view())) {
    result_.error("flow " + std::to_string(source_) + ": corrupted payload");
    return;
  }
  if (seq < expected_) {
    result_.error("flow " + std::to_string(source_) + ": duplicate or reordered seq " +
                  std::to_string(seq));
    return;
  }
  if (seq > expected_ && reliable_) {
    result_.error("flow " + std::to_string(source_) + ": reliable gap before seq " +
                  std::to_string(seq));
  }
  expected_ = seq + 1;
  ++delivered_;
  bytes_ += m.size();
  const dash::Time delay = sim_.now() - m.sent_at;
  if (m.sent_at >= 0 && bound_a_ != dash::kTimeNever) {
    result_.latency_ms.push_back(dash::to_millis(delay));
    if (delay <= bound_a_ + bound_b_ * static_cast<dash::Time>(m.size())) ++ontime_;
  }
  if (delivery_cb_) delivery_cb_(sim_.now());
}

void Flow::settle() {
  result_.attempted += submitted_ + refused_;
  result_.failed += refused_ + (submitted_ - delivered_);
}

Ticker::Ticker(dash::sim::Simulator& sim, dash::Time first, dash::Time period,
               std::function<bool()> fn)
    : sim_(sim), period_(period), fn_(std::move(fn)) {
  sim_.at(first, [this] { tick(); });
}

void Ticker::tick() {
  if (fn_()) sim_.after(period_, [this] { tick(); });
}

BulkWriter::BulkWriter(dash::transport::StreamSender& tx, std::uint64_t seed,
                       std::uint64_t stream, std::vector<std::size_t> sizes,
                       Probe* probe, std::uint64_t limit)
    : tx_(tx),
      seed_(seed),
      stream_(stream),
      sizes_(std::move(sizes)),
      probe_(probe),
      limit_(limit) {}

void BulkWriter::start() {
  tx_.on_writable([this] { feed(); });
  feed();
}

void BulkWriter::feed() {
  while (on_ && written_ < limit_) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(sizes_[ends_.size() % sizes_.size()], limit_ - written_));
    dash::Bytes chunk = stream_bytes(seed_, stream_, written_, n);
    dash::Status st;
    {
      SpanScope span(probe_, SpanKind::kTransportWrite,
                     message_id(stream_, ends_.size() + 1));
      st = tx_.write(std::move(chunk));
    }
    if (!st.ok()) {
      if (st.error().code != dash::Errc::kWouldBlock) ++refused_;
      return;
    }
    written_ += n;
    ends_.push_back(written_);
  }
}

void BulkWriter::settle(RoundResult& r, std::uint64_t received) const {
  r.attempted += ends_.size() + refused_;
  r.failed += refused_;
  for (auto it = ends_.rbegin(); it != ends_.rend() && *it > received; ++it) ++r.failed;
  if (received > written_) r.error("stream delivered more bytes than were written");
}

BulkReader::BulkReader(dash::transport::StreamReceiver& rx, std::uint64_t seed,
                       std::uint64_t stream, Probe* probe, RoundResult& r)
    : check_(seed, stream) {
  rx.on_data([this, probe, stream, &r](dash::Bytes b) {
    SpanScope span(probe, SpanKind::kDeliver, message_id(stream, check_.chunks() + 1));
    if (!check_.on_data(b)) {
      r.error("stream " + std::to_string(stream) + ": bytes differ at offset " +
              std::to_string(check_.received() - b.size()));
    }
  });
}

RpcCaller::RpcCaller(dash::sim::Simulator& sim, dash::rkom::RkomNode& client,
                     dash::rms::HostId server, std::uint64_t source, std::uint64_t seed,
                     std::vector<std::size_t> sizes, std::vector<dash::Time> think,
                     Probe* probe, RoundResult& r)
    : sim_(sim),
      client_(client),
      server_(server),
      source_(source),
      seed_(seed),
      sizes_(std::move(sizes)),
      think_(std::move(think)),
      probe_(probe),
      r_(r) {}

void RpcCaller::start() { call(); }

void RpcCaller::call() {
  if (!on_ || in_flight_ || calls_ >= limit_) return;
  in_flight_ = true;
  const std::uint64_t n = calls_++;
  const std::uint64_t id = message_id(source_, n + 1);
  const std::size_t size = sizes_[n % sizes_.size()];
  const dash::Time t0 = sim_.now();
  dash::Bytes args = make_payload(seed_, id, size);
  SpanScope span(probe_, SpanKind::kRkomCall, id);
  client_.call(server_, kEchoOp, std::move(args),
               [this, id, size, t0, n](dash::Result<dash::Bytes> res) {
                 SpanScope deliver(probe_, SpanKind::kDeliver, id);
                 in_flight_ = false;
                 if (!res.ok()) {
                   ++errors_;
                 } else if (res.value().size() != size || payload_id(res.value()) != id ||
                            !payload_ok(seed_, res.value())) {
                   ++errors_;
                   r_.error("rpc " + std::to_string(id) + ": reply differs from args");
                 } else {
                   ++replies_;
                   rtt_ms_.push_back(dash::to_millis(sim_.now() - t0));
                 }
                 sim_.after(think_[n % think_.size()], [this] { call(); });
               });
}

void RpcCaller::settle(RoundResult& r) const {
  r.attempted += calls_;
  r.failed += calls_ - replies_;
}

void register_echo(dash::rkom::RkomNode& server, dash::Time service_time) {
  server.register_operation(
      kEchoOp, {[](dash::BytesView in) { return dash::Bytes(in.begin(), in.end()); },
                service_time});
}

void TimedPhase::start(std::uint64_t delivered_so_far, Probe* probe) {
  msgs0_ = delivered_so_far;
  allocs0_ = allocations();
  cpu0_ = cpu_now();
  wall0_ = wall_now();
  if (probe != nullptr) probe->set_active(true);
}

void TimedPhase::stop(RoundResult& r, std::uint64_t delivered_so_far, Probe* probe) {
  r.wall_s += wall_now() - wall0_;
  r.cpu_s += cpu_now() - cpu0_;
  r.allocs += allocations() - allocs0_;
  r.msgs += delivered_so_far - msgs0_;
  if (probe != nullptr) probe->set_active(false);
}

}  // namespace perfbench

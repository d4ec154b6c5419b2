#include "path/stripe.h"

#include <algorithm>
#include <string>

#include "util/serialize.h"

namespace dash::path {
namespace {

/// At most this many subpaths (one per distinct fabric, in registration
/// order); fewer when fewer networks reach the peer or admit the stream.
constexpr std::size_t kMaxSubpaths = 4;

/// RTO bounds: RFC 6298 SRTT + 4·RTTVAR, never below kMinRto; kMaxRto
/// before the first sample and as the ceiling of the per-retransmission
/// backoff, so a run of lost acks cannot back an attempt off beyond the
/// lifetime of the transfer.
constexpr Time kMinRto = msec(20);
constexpr Time kMaxRto = sec(1);

/// The retransmit scan runs this often while anything is in flight.
constexpr Time kTickInterval = msec(10);

/// Consecutive scan rounds with an expired send that declare a subpath
/// dead: its in-flight messages move to the survivors and it is never
/// dispatched to again.
constexpr int kSubpathDeathAfter = 3;

/// Dispatch weight of a subpath before its first RTT sample.
constexpr Time kInitialRtt = msec(5);

/// RACK reordering window: half the subpath's SRTT, never under 2 ms, so
/// in-window reordering never triggers a spurious retransmit.
constexpr cc::RackConfig kRackWindow{0.5, msec(2), kTimeNever};

/// Paced recovery: retransmissions and dead-subpath redistribution get
/// kPaceGain x the stripe's smoothed ack rate per tick, at least
/// kPaceMinBytesPerTick so recovery starts before the first rate sample.
/// Re-blasting a dead subpath's backlog in one burst would overrun the
/// survivors' buffers; deferred sends go out on the following ticks.
constexpr double kPaceGain = 1.25;
constexpr std::size_t kPaceMinBytesPerTick = 16 * 1024;
constexpr double kAckRateAlpha = 0.3;

/// Receiver reorder window: how far past the next expected sequence number
/// a message may arrive and still be buffered. The ST fast ack fires at the
/// peer's ST, so a message dropped beyond it is gone for good: sized for
/// the worst subpath skew, not the average.
constexpr std::size_t kReorderWindow = 4096;

/// Substream request derived from the client's: same quality and delay
/// envelope, message size widened for the stripe header.
rms::Request substream_request(const rms::Request& request) {
  rms::Request sub = request;
  sub.desired.max_message_size += kStripeHeaderBytes;
  sub.acceptable.max_message_size += kStripeHeaderBytes;
  return sub;
}

}  // namespace

// ------------------------------------------------------------------ sender

Result<std::unique_ptr<StripedStream>> StripedStream::create(
    st::SubtransportLayer& st, PathManager* pm, const rms::Request& request,
    const rms::Label& target) {
  const rms::Request sub_request = substream_request(request);
  std::vector<Subpath> subpaths;
  Error last_error = make_error(Errc::kNoRoute, "no attached network reaches host " +
                                                    std::to_string(target.host));
  for (netrms::NetRmsFabric* fabric : st.networks()) {
    if (subpaths.size() >= kMaxSubpaths) break;
    if (!fabric->network().attached(target.host)) continue;
    auto created =
        st.create_on(*fabric, sub_request, rms::Label{target.host, kStripePort});
    if (!created) {
      last_error = created.error();
      continue;
    }
    Subpath sp;
    sp.stream = std::move(created).value();
    sp.st_rms = static_cast<st::StRms*>(sp.stream.get());
    sp.fabric = fabric;
    sp.rack = cc::RackState(kRackWindow);
    subpaths.push_back(std::move(sp));
  }
  if (subpaths.empty()) return last_error;

  // Client-visible contract: the capacity of the stripe is the sum of its
  // subpaths'; the message ceiling and delay bound are the weakest link's
  // (any message may ride any subpath).
  rms::Params actual = subpaths.front().st_rms->params();
  actual.capacity = 0;
  for (const Subpath& sp : subpaths) {
    const rms::Params& p = sp.st_rms->params();
    actual.capacity += p.capacity;
    actual.max_message_size = std::min(actual.max_message_size, p.max_message_size);
    actual.delay.a = std::max(actual.delay.a, p.delay.a);
    actual.delay.b_per_byte = std::max(actual.delay.b_per_byte, p.delay.b_per_byte);
    actual.bit_error_rate = std::max(actual.bit_error_rate, p.bit_error_rate);
  }
  actual.max_message_size -= std::min<std::uint64_t>(actual.max_message_size,
                                                     kStripeHeaderBytes);

  auto stream = std::unique_ptr<StripedStream>(
      new StripedStream(st, pm, std::move(actual), target));
  stream->subpaths_ = std::move(subpaths);
  // The first substream's ST id is unique per sending host (ST ids are
  // allocated from one per-host counter), so it serves as the wire-level
  // stripe id that keeps concurrent stripes from the same host apart.
  stream->stripe_id_ = stream->subpaths_.front().st_rms->id();
  for (std::size_t i = 0; i < stream->subpaths_.size(); ++i) {
    Subpath& sp = stream->subpaths_[i];
    StripedStream* self = stream.get();
    sp.st_rms->on_fast_ack([self, i](std::uint64_t ack_id) { self->on_ack(i, ack_id); });
    sp.st_rms->on_failure([self, i](const Error&) { self->on_subpath_failed(i); });
    if (pm != nullptr) pm->set_pinned(sp.st_rms->id(), true);
  }
  return stream;
}

StripedStream::StripedStream(st::SubtransportLayer& st, PathManager* pm,
                             rms::Params params, rms::Label target)
    : Rms(std::move(params)),
      st_(st),
      sim_(st.simulator()),
      pm_(pm),
      target_(target),
      pace_budget_(static_cast<double>(kPaceMinBytesPerTick)) {}

StripedStream::~StripedStream() { sim_.cancel(tick_timer_); }

Time StripedStream::srtt_or_initial(const Subpath& sp) {
  return sp.rtt.valid() ? sp.rtt.srtt() : kInitialRtt;
}

double StripedStream::subpath_rtt_ns(std::size_t i) const {
  return static_cast<double>(srtt_or_initial(subpaths_.at(i)));
}

std::size_t StripedStream::live_subpaths() const {
  std::size_t n = 0;
  for (const Subpath& sp : subpaths_) {
    if (!sp.dead) ++n;
  }
  return n;
}

Status StripedStream::do_send(rms::Message msg, Time transmission_deadline) {
  (void)transmission_deadline;
  const std::size_t idx = pick_subpath(subpaths_.size());
  if (idx == subpaths_.size()) {
    return make_error(Errc::kRmsFailed, "every stripe subpath is dead");
  }
  const std::uint64_t seq = next_seq_++;
  Unacked u;
  u.payload = std::move(msg.data);
  u.client_sent_at = msg.sent_at >= 0 ? msg.sent_at : sim_.now();
  Unacked& entry = unacked_.insert(seq, std::move(u));
  ++stats_.striped;
  const Status s = dispatch(seq, entry, idx);
  if (!s.ok()) {
    // The substream refused the send outright — nothing went on the wire.
    // Surface the error and roll the sequence back: leaving the entry for
    // the ARQ would later deliver a message the caller was told failed,
    // and dropping it while keeping the sequence number would leave a
    // permanent hole that wedges the receiver's in-order delivery.
    unacked_.erase(seq);
    --next_seq_;
    --stats_.striped;
    return s;
  }
  arm_tick();
  return s;
}

Status StripedStream::dispatch(std::uint64_t seq, Unacked& u, std::size_t subpath) {
  Subpath& sp = subpaths_[subpath];
  BufferWriter w(kStripeHeaderBytes + u.payload.size(), sp.st_rms->send_headroom());
  w.u64(stripe_id_);
  w.u64(seq);
  w.u64(target_.port);
  w.i64(u.client_sent_at);
  w.bytes(u.payload.view());

  rms::Message m;
  m.data = w.finish();
  const Status s = sp.st_rms->send_acked(std::move(m), seq);
  u.subpath = subpath;
  u.sent_at = sim_.now();
  if (s.ok()) {
    ++sp.sent;
  } else {
    ++stats_.send_errors;
  }
  return s;
}

std::size_t StripedStream::pick_subpath(std::size_t avoid) {
  // Smoothed-RTT-weighted round robin: every pick credits each live
  // subpath in proportion to 1/RTT, then charges the winner one unit —
  // deterministic, smooth, and it re-weights as the SRTT moves. `avoid`
  // deprioritizes the subpath a retransmission just expired on (it is
  // chosen again only when it is the sole survivor).
  const auto weight = [](const Subpath& sp) {
    return 1.0 / std::max(static_cast<double>(srtt_or_initial(sp)), 1.0);
  };
  double total = 0.0;
  for (const Subpath& sp : subpaths_) {
    if (sp.dead || (sp.st_rms != nullptr && sp.st_rms->failed())) continue;
    total += weight(sp);
  }
  if (total <= 0.0) return subpaths_.size();

  std::size_t best = subpaths_.size();
  double best_credit = 0.0;
  for (std::size_t i = 0; i < subpaths_.size(); ++i) {
    Subpath& sp = subpaths_[i];
    if (sp.dead || (sp.st_rms != nullptr && sp.st_rms->failed())) continue;
    sp.credit += weight(sp) / total;
    if (i == avoid) continue;
    if (best == subpaths_.size() || sp.credit > best_credit) {
      best = i;
      best_credit = sp.credit;
    }
  }
  if (best == subpaths_.size() && avoid < subpaths_.size() &&
      !subpaths_[avoid].dead && !subpaths_[avoid].st_rms->failed()) {
    best = avoid;  // sole survivor
  }
  if (best != subpaths_.size()) subpaths_[best].credit -= 1.0;
  return best;
}

void StripedStream::on_ack(std::size_t idx, std::uint64_t seq) {
  Unacked* u = unacked_.find(seq);
  if (u == nullptr) return;  // already acked via another copy
  ++stats_.acks;
  Subpath& sp = subpaths_[idx];
  sp.expired_rounds = 0;
  // Karn's rule: a retransmitted message's ack is ambiguous about which
  // transmission it answers — never feed it into the RTT estimate as-is.
  // But ignoring ambiguous acks entirely can freeze the estimate below the
  // real latency (every ack then looks late, every message retransmits,
  // and no clean sample ever arrives to break the loop). The escape hatch:
  // whichever copy the ack answers was sent no later than the *last*
  // transmission, so `now - sent_at` bounds that copy's RTT from below —
  // fed only when it exceeds the SRTT, it can raise the estimate but never
  // lower it. (Measuring from the first transmission instead would fold
  // retransmission waits and establishment queueing into the estimate; one
  // substream stuck in a slow handshake can then inflate a path's RTO past
  // the lifetime of the transfer.)
  const Time now = sim_.now();
  if (u->sent_at >= 0) {
    const Time sample = now - u->sent_at;
    if (u->retx == 0 || sample > srtt_or_initial(sp)) sp.rtt.sample(sample);
  }
  // Smoothed delivery rate, feeding the paced-recovery budget. Same-instant
  // acks (a burst delivered in one event) contribute no interval; skip them.
  const std::size_t acked_bytes = u->payload.size() + kStripeHeaderBytes;
  if (sp.last_ack_at >= 0 && now > sp.last_ack_at) {
    const double inst = static_cast<double>(acked_bytes) / to_seconds(now - sp.last_ack_at);
    sp.ack_rate_Bps = kAckRateAlpha * inst + (1.0 - kAckRateAlpha) * sp.ack_rate_Bps;
  }
  sp.last_ack_at = now;

  const bool rack_advance = u->subpath == idx && sp.rack.on_delivered(u->sent_at);
  unacked_.erase(seq);
  // A newer send on this subpath was just confirmed: anything older still
  // unacknowledged past the reordering window is lost — recover it now
  // instead of waiting out the RTO (RACK, DESIGN.md §13).
  if (rack_advance) rack_scan(idx);
}

void StripedStream::rack_scan(std::size_t idx) {
  const Subpath& sp = subpaths_[idx];
  const Time srtt = srtt_or_initial(sp);
  unacked_.for_each([&](std::uint64_t seq, Unacked& u) {
    if (u.subpath != idx || u.sent_at < 0 || !sp.rack.lost(u.sent_at, srtt)) {
      return true;
    }
    if (resend(seq, u, idx) != Resend::kSent) return false;
    ++stats_.rack_retransmits;
    return true;
  });
  arm_tick();
}

StripedStream::Resend StripedStream::resend(std::uint64_t seq, Unacked& u,
                                            std::size_t avoid) {
  if (!pace_allow(u.payload.size() + kStripeHeaderBytes)) return Resend::kPaced;
  const std::size_t next = pick_subpath(avoid);
  if (next == subpaths_.size()) return Resend::kNoSurvivor;
  ++u.retx;
  ++stats_.retransmits;
  (void)dispatch(seq, u, next);
  return Resend::kSent;
}

bool StripedStream::pace_allow(std::size_t bytes) {
  if (pace_budget_ < static_cast<double>(bytes)) {
    ++stats_.pace_deferred;
    return false;
  }
  pace_budget_ -= static_cast<double>(bytes);
  return true;
}

void StripedStream::refill_pace_budget() {
  double rate = 0.0;
  for (const Subpath& sp : subpaths_) {
    if (!sp.dead) rate += sp.ack_rate_Bps;
  }
  pace_budget_ = std::max(static_cast<double>(kPaceMinBytesPerTick),
                          rate * to_seconds(kTickInterval) * kPaceGain);
}

void StripedStream::on_subpath_failed(std::size_t idx) {
  if (subpaths_[idx].dead) return;
  kill_subpath(idx, "substream failure");
}

void StripedStream::kill_subpath(std::size_t idx, const char* why) {
  Subpath& sp = subpaths_[idx];
  if (sp.dead) return;
  sp.dead = true;
  ++stats_.subpath_deaths;
  (void)why;
  if (live_subpaths() == 0) {
    fail(make_error(Errc::kRmsFailed, "every stripe subpath died"));
    return;
  }
  redistribute_from(idx);
  arm_tick();
}

void StripedStream::redistribute_from(std::size_t idx) {
  unacked_.for_each([&](std::uint64_t seq, Unacked& u) {
    // Budget exhausted (the leftovers keep pointing at the dead subpath
    // and the tick scan moves them as the budget refills) or raced to
    // zero survivors.
    return u.subpath != idx || resend(seq, u, idx) == Resend::kSent;
  });
}

void StripedStream::arm_tick() {
  if (tick_armed_ || unacked_.empty() || failed() || closed()) return;
  tick_armed_ = true;
  tick_timer_ = sim_.timer_after(kTickInterval, [this] { tick(); });
}

void StripedStream::tick() {
  tick_armed_ = false;
  const Time now = sim_.now();
  refill_pace_budget();
  std::vector<bool> expired(subpaths_.size(), false);
  unacked_.for_each([&](std::uint64_t seq, Unacked& u) {
    if (u.sent_at < 0) return true;
    Subpath& usp = subpaths_[u.subpath];
    const bool orphaned =
        usp.dead || (usp.st_rms != nullptr && usp.st_rms->failed());
    if (!orphaned && usp.st_rms != nullptr && !usp.st_rms->established()) {
      // Still negotiating: the send is queued inside ST, not on the wire,
      // so an "ack timeout" would measure the control handshake, not the
      // path. Push the RTO window instead — if establishment ultimately
      // fails, the substream's failure callback kills the subpath and
      // redistributes everything queued on it.
      u.sent_at = now;
      return true;
    }
    if (!orphaned) {
      // Karn's rule, second half: each retransmission doubles the RTO.
      // Without backoff a frozen RTT estimate (retransmitted messages never
      // produce samples) can sit below the real ack latency and every tick
      // becomes a retransmit storm that feeds its own congestion.
      const Time rto = std::min(kMaxRto, usp.rtt.rto(kMinRto, kMaxRto, kMaxRto)
                                             << std::min<std::uint32_t>(u.retx, 6));
      if (now - u.sent_at < rto) return true;
      expired[u.subpath] = true;
    }
    // Orphaned sends (paced redistribution left them on a dead subpath)
    // move immediately; live-path expiries charge the same budget.
    return resend(seq, u, u.subpath) != Resend::kNoSurvivor;
  });
  // One strike per scan round per subpath, however many sends expired on
  // it: death declaration is time-based (rounds), not count-based.
  for (std::size_t i = 0; i < subpaths_.size(); ++i) {
    if (subpaths_[i].dead) continue;
    if (expired[i]) {
      if (++subpaths_[i].expired_rounds >= kSubpathDeathAfter) {
        kill_subpath(i, "consecutive ack timeouts");
      }
    } else {
      // A quiet round breaks the streak: only an unbroken run of timeout
      // rounds (no acks, no expiry-free scans) declares the path dead.
      subpaths_[i].expired_rounds = 0;
    }
  }
  arm_tick();
}

void StripedStream::do_close() {
  sim_.cancel(tick_timer_);
  tick_armed_ = false;
  unacked_.clear();
  for (Subpath& sp : subpaths_) {
    if (sp.stream != nullptr && !sp.stream->failed()) sp.stream->close();
  }
}

// ---------------------------------------------------------------- receiver

StripeEndpoint::StripeEndpoint(sim::Simulator& sim, rms::PortRegistry& ports)
    : sim_(sim), ports_(ports) {
  ports_.bind(kStripePort, &port_);
  port_.set_handler([this](rms::Message m) { on_message(std::move(m)); });
}

StripeEndpoint::~StripeEndpoint() { ports_.unbind(kStripePort); }

void StripeEndpoint::on_message(rms::Message msg) {
  ++stats_.received;
  Reader r(msg.data);
  auto stripe = r.u64();
  auto seq = r.u64();
  auto port = r.u64();
  auto client_sent_at = r.i64();
  if (!stripe || !seq || !port || !client_sent_at) {
    ++stats_.malformed;
    return;
  }
  PeerState& ps = peers_[{msg.source.host, *stripe}];
  if (*seq < ps.next_expected || ps.buffer.contains(*seq)) {
    ++stats_.duplicates;  // a retransmit's extra copy
    return;
  }

  rms::Message out;
  out.data = msg.data.slice(r.pos(), r.remaining());
  out.source = rms::Label{msg.source.host, kStripePort};
  out.target = rms::Label{msg.target.host, *port};
  out.sent_at = *client_sent_at;

  if (*seq != ps.next_expected) {
    if (*seq - ps.next_expected > kReorderWindow) {
      ++stats_.window_overflow;  // the exactly-once guarantee just broke
      return;
    }
    ps.buffer.insert(*seq, std::move(out));
    ++stats_.buffered;
    return;
  }

  // In order: deliver it and drain whatever the gap was holding back.
  rms::Port* p = ports_.find(out.target.port);
  if (p != nullptr) p->deliver(std::move(out), sim_.now());
  ++stats_.delivered;
  ++ps.next_expected;
  while (!ps.buffer.empty() && ps.buffer.front_seq() == ps.next_expected) {
    rms::Message next = std::move(ps.buffer.front());
    ps.buffer.erase(ps.next_expected);
    rms::Port* bp = ports_.find(next.target.port);
    if (bp != nullptr) bp->deliver(std::move(next), sim_.now());
    ++stats_.delivered;
    ++ps.next_expected;
  }
}

}  // namespace dash::path

// The model-based capacity enforcer (DESIGN.md §13).
//
// §4.4 makes capacity enforcement a pluggable policy of the stream
// protocol; this enforcer plugs the cc subsystem into that same slot. It
// composes the pieces:
//
//   DeliveryRateSampler ──samples──▶ BandwidthModel ──rate──▶ Pacer
//
// can_send admits a send only when it fits the model's congestion window
// AND the pacing schedule allows it; note_sent charges both. The stream
// additionally feeds per-send snapshots back on ack so the sampler can
// form delivery-rate samples, and forwards fabric source-quench signals.
//
// Deterministic reservations are untouched by construction: the enforcer
// only ever *delays or shrinks* what the stream was already allowed to
// send — it adds no traffic, and admission control (netrms) still governs
// the fabric share.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "cc/model.h"
#include "cc/pacer.h"
#include "cc/rack.h"
#include "cc/sampler.h"
#include "rms/params.h"
#include "sim/simulator.h"
#include "transport/enforcer.h"

namespace dash::cc {

struct Config {
  ModelConfig model;
  RackConfig rack;
  /// Bytes a sender may burst back-to-back before pacing engages.
  std::size_t pace_burst = 2048;
  /// When true (default) the model's initial bandwidth is seeded from the
  /// RMS contract: capacity over the §4.4 rate period A + B·capacity.
  bool seed_bw_from_params = true;
};

class ModelEnforcer final : public transport::CapacityEnforcer {
 public:
  ModelEnforcer(sim::Simulator& sim, const rms::Params& params, Config cfg = {});

  // CapacityEnforcer: window (model cwnd) + pacing schedule.
  bool can_send(std::size_t n) override {
    return inflight_ + n <= model_.cwnd_bytes() && pacer_.can_send(n);
  }
  void note_sent(std::size_t n) override {
    inflight_ += n;
    pacer_.note_sent(n);
  }
  void note_acked(std::size_t n) override {
    inflight_ -= std::min<std::uint64_t>(inflight_, n);
  }
  Time next_allowed(std::size_t n) override {
    // Window-bound: only an ack can unblock. Pace-bound: a known time.
    if (inflight_ + n > model_.cwnd_bytes()) return kTimeNever;
    return pacer_.next_allowed(n);
  }

  // Per-send evidence from the stream protocol, which keeps each send's
  // snapshot in its own window record until the send is acked.
  DeliveryRateSampler::Snapshot on_packet_sent(std::size_t bytes, bool app_limited) {
    return sampler_.on_sent(bytes, sim_.now(), app_limited);
  }
  void on_packet_retransmitted(DeliveryRateSampler::Snapshot& s) {
    DeliveryRateSampler::on_retransmit(s, sim_.now());
  }
  /// Consumes the ack, updates the model, refreshes the pacing rate.
  /// Returns the unambiguous RTT sample, if any (for the stream's RTO
  /// estimator). `rtt_eligible` is false for late transport-level acks
  /// that arrive over the slow reverse path.
  std::optional<Time> on_packet_acked(const DeliveryRateSampler::Snapshot& s,
                                      bool rtt_eligible = true);

  /// Fabric source-quench reached this stream.
  void on_quench() {
    model_.on_quench(sim_.now());
    pacer_.set_rate(model_.pacing_rate_Bps());
  }

  // Wake path for pace-blocked senders.
  void on_ready(std::function<void()> cb) { pacer_.on_ready(std::move(cb)); }
  void schedule_wake(std::size_t n) { pacer_.schedule_wake(n); }

  // Telemetry surface (cc.* collector).
  double pacing_rate_Bps() const { return model_.pacing_rate_Bps(); }
  double btlbw_Bps() const { return model_.btlbw_Bps(); }
  Time min_rtt() const { return model_.min_rtt(); }
  Phase phase() const { return model_.phase(); }
  std::uint64_t cwnd() const { return model_.cwnd_bytes(); }
  std::uint64_t inflight() const { return inflight_; }
  std::uint64_t quenches() const { return model_.quenches(); }
  std::uint64_t delivered_bytes() const { return sampler_.delivered_bytes(); }
  const BandwidthModel& model() const { return model_; }
  const RackConfig& rack_config() const { return cfg_.rack; }

 private:
  sim::Simulator& sim_;
  Config cfg_;
  DeliveryRateSampler sampler_;
  BandwidthModel model_;
  Pacer pacer_;
  std::uint64_t inflight_ = 0;
};

}  // namespace dash::cc

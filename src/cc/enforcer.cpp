#include "cc/enforcer.h"

namespace dash::cc {
namespace {

ModelConfig seeded(ModelConfig m, const rms::Params& params, bool seed) {
  if (!seed || params.capacity == 0) return m;
  // The §4.4 pessimistic rate: capacity bytes per A + B·capacity period.
  // It is a guaranteed-safe floor, so startup begins from a rate the RMS
  // contract already promised and probes upward from there.
  const Time period =
      params.delay.a + params.delay.b_per_byte * static_cast<Time>(params.capacity);
  if (period > 0) {
    m.initial_bw_Bps = static_cast<double>(params.capacity) / to_seconds(period);
  }
  return m;
}

}  // namespace

ModelEnforcer::ModelEnforcer(sim::Simulator& sim, const rms::Params& params,
                             Config cfg)
    : sim_(sim),
      cfg_(cfg),
      model_(seeded(cfg.model, params, cfg.seed_bw_from_params)),
      pacer_(sim) {
  pacer_.set_burst(cfg_.pace_burst);
  pacer_.set_rate(model_.pacing_rate_Bps());
}

std::optional<Time> ModelEnforcer::on_packet_acked(
    const DeliveryRateSampler::Snapshot& s, bool rtt_eligible) {
  auto sample = sampler_.on_ack(s, sim_.now(), rtt_eligible);
  if (!sample) return std::nullopt;
  model_.on_sample(*sample, sampler_.delivered_bytes(), inflight_, sim_.now());
  pacer_.set_rate(model_.pacing_rate_Bps());
  return sample->rtt;
}

}  // namespace dash::cc

// The four workloads. Each call builds a fresh world from `seed`, sets it
// up, runs one timed phase and a drain, checks every output, and tears the
// world down. With a probe attached the round also records spans and the
// per-layer metrics; its deterministic outputs must not change.
#pragma once

#include <cstdint>

#include "common.h"

namespace perfbench {

RoundResult run_sim_mixed_wan(std::uint64_t seed, Probe* probe);
RoundResult run_sim_lan_mux(std::uint64_t seed, Probe* probe);
RoundResult run_udp_loopback(std::uint64_t seed, Probe* probe);
RoundResult run_sim_failover(std::uint64_t seed, Probe* probe);

}  // namespace perfbench

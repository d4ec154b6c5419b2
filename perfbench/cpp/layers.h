// Per-layer counters read through each layer's public stats(), and the
// per-layer metrics derived from their change over a timed phase.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace dash {
namespace fault { class FaultInjector; }
namespace net { class EthernetNetwork; class InternetNetwork; class UdpNetwork; }
namespace path { class PathManager; class StripedStream; class StripeEndpoint; }
namespace rkom { class RkomNode; }
namespace rt { class Driver; }
namespace st { class SubtransportLayer; }
namespace transport { class StreamSender; class StreamReceiver; }
}  // namespace dash

namespace perfbench {

using Counters = std::map<std::string, double>;

/// The layers present in one world. Workloads register what they built;
/// absent layers contribute nothing, so their metrics read 0 (idle).
struct Layers {
  const dash::sim::Simulator* sim = nullptr;
  const dash::rt::Driver* driver = nullptr;
  std::vector<const TracedNetwork*> media;
  std::vector<const dash::net::EthernetNetwork*> ethernets;
  std::vector<const dash::net::InternetNetwork*> internets;
  std::vector<const dash::net::UdpNetwork*> udps;
  std::vector<const dash::st::SubtransportLayer*> sts;
  std::vector<const dash::transport::StreamSender*> senders;
  std::vector<const dash::transport::StreamReceiver*> receivers;
  std::vector<const dash::rkom::RkomNode*> rkoms;
  std::vector<const dash::path::PathManager*> paths;
  std::vector<const dash::path::StripedStream*> stripes;
  std::vector<const dash::fault::FaultInjector*> faults;

  /// Cumulative counters of every registered layer.
  Counters snapshot() const;
};

/// Appends the per-layer metrics for a timed phase that delivered `msgs`
/// application messages over `sim_seconds` of simulated time.
void add_layer_metrics(RoundResult& r, const Layers& layers, const Counters& before,
                       const Counters& after, std::uint64_t msgs, double sim_seconds);

/// Folds the deterministic counters of a phase into the output digest.
void digest_counters(Digest& d, const Counters& before, const Counters& after);

}  // namespace perfbench

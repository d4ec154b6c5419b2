// Shared test scaffolding: a simulated host (CPU + port registry) and
// ready-made single-segment / dumbbell worlds with a network RMS fabric.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "fault/fault.h"
#include "net/ethernet.h"
#include "net/internet.h"
#include "net/udp/udp.h"
#include "netrms/fabric.h"
#include "path/path.h"
#include "rms/rms.h"
#include "sim/cpu_scheduler.h"
#include "sim/simulator.h"
#include "st/st.h"
#include "util/alloc_count.h"

/// Skips an allocation-counting test in a binary built without the
/// counting allocator.
#define REQUIRE_ALLOC_COUNT()                                  \
  do {                                                         \
    if (!::dash::alloc_count::instrumented()) {                \
      GTEST_SKIP() << "counting allocator absent";             \
    }                                                          \
  } while (0)

/// Skips a test where the environment forbids loopback UDP sockets
/// (sandboxed CI), using the backend's own capability probe.
#define REQUIRE_UDP()                                   \
  do {                                                  \
    if (!dash::net::udp_available()) {                  \
      GTEST_SKIP() << "UDP sockets unavailable here";   \
    }                                                   \
  } while (0)

namespace dash::testing {

/// One simulated machine: identity, CPU, and port registry.
struct SimHost {
  rms::HostId id;
  sim::CpuScheduler cpu;
  rms::PortRegistry ports;

  SimHost(rms::HostId id_, sim::Simulator& sim,
          sim::CpuPolicy policy = sim::CpuPolicy::kEdf)
      : id(id_), cpu(sim, policy) {}
};

/// Creates a host and registers its CPU + ports with the fabric (the
/// construction step every world repeats).
inline std::unique_ptr<SimHost> make_registered_host(rms::HostId id,
                                                     sim::Simulator& sim,
                                                     netrms::NetRmsFabric& fabric) {
  auto host = std::make_unique<SimHost>(id, sim);
  fabric.register_host(id, host->cpu, host->ports);
  return host;
}

/// A single Ethernet-like segment with `n` hosts and a network-RMS fabric.
struct EthernetWorld {
  sim::Simulator sim;
  std::unique_ptr<net::EthernetNetwork> network;
  std::unique_ptr<netrms::NetRmsFabric> fabric;
  std::vector<std::unique_ptr<SimHost>> hosts;
  std::unique_ptr<fault::FaultInjector> faults;

  explicit EthernetWorld(int n, net::NetworkTraits traits = net::ethernet_traits(),
                         std::uint64_t seed = 42,
                         net::Discipline discipline = net::Discipline::kDeadline,
                         netrms::CostModel cost = {}) {
    network = std::make_unique<net::EthernetNetwork>(sim, std::move(traits), seed,
                                                     discipline);
    fabric = std::make_unique<netrms::NetRmsFabric>(sim, *network, cost);
    for (int i = 1; i <= n; ++i) {
      hosts.push_back(make_registered_host(static_cast<rms::HostId>(i), sim, *fabric));
    }
  }

  /// Interposes a scripted fault plan on the segment. Returns the injector
  /// for counter assertions; call before traffic starts.
  fault::FaultInjector& with_faults(fault::FaultPlan plan, std::uint64_t seed = 7) {
    faults = std::make_unique<fault::FaultInjector>(sim, std::move(plan), seed);
    faults->attach(*network);
    return *faults;
  }

  SimHost& host(rms::HostId id) { return *hosts.at(id - 1); }
};

/// A two-gateway dumbbell internet with `left` + `right` hosts.
struct DumbbellWorld {
  sim::Simulator sim;
  std::unique_ptr<net::InternetNetwork> network;
  std::unique_ptr<netrms::NetRmsFabric> fabric;
  std::map<rms::HostId, std::unique_ptr<SimHost>> hosts;
  std::unique_ptr<fault::FaultInjector> faults;

  DumbbellWorld(std::vector<rms::HostId> left, std::vector<rms::HostId> right,
                net::NetworkTraits traits = net::internet_traits(),
                std::uint64_t seed = 42,
                net::Discipline discipline = net::Discipline::kDeadline) {
    network = net::make_dumbbell(sim, std::move(traits), seed, left, right, discipline);
    fabric = std::make_unique<netrms::NetRmsFabric>(sim, *network);
    for (auto side : {&left, &right}) {
      for (rms::HostId id : *side) {
        hosts[id] = make_registered_host(id, sim, *fabric);
      }
    }
  }

  fault::FaultInjector& with_faults(fault::FaultPlan plan, std::uint64_t seed = 7) {
    faults = std::make_unique<fault::FaultInjector>(sim, std::move(plan), seed);
    faults->attach(*network);
    return *faults;
  }

  SimHost& host(rms::HostId id) { return *hosts.at(id); }
};

/// A single Ethernet segment whose hosts each run a subtransport layer.
struct StWorld {
  sim::Simulator sim;
  std::unique_ptr<net::EthernetNetwork> network;
  std::unique_ptr<netrms::NetRmsFabric> fabric;
  struct Node {
    std::unique_ptr<SimHost> host;
    std::unique_ptr<st::SubtransportLayer> st;
  };
  std::vector<Node> nodes;
  std::unique_ptr<fault::FaultInjector> faults;

  explicit StWorld(int n, net::NetworkTraits traits = net::ethernet_traits(),
                   std::uint64_t seed = 42, st::StConfig st_config = {},
                   net::Discipline discipline = net::Discipline::kDeadline,
                   netrms::CostModel cost = {}) {
    network = std::make_unique<net::EthernetNetwork>(sim, std::move(traits), seed,
                                                     discipline);
    fabric = std::make_unique<netrms::NetRmsFabric>(sim, *network, cost);
    for (int i = 1; i <= n; ++i) {
      Node node;
      node.host = make_registered_host(static_cast<rms::HostId>(i), sim, *fabric);
      node.st = std::make_unique<st::SubtransportLayer>(
          sim, node.host->id, node.host->cpu, node.host->ports, st_config);
      node.st->add_network(*fabric);
      nodes.push_back(std::move(node));
    }
  }

  /// Interposes a scripted fault plan on the segment's medium. The injector
  /// must be attached before traffic starts; the returned reference exposes
  /// the impairment counters for assertions.
  fault::FaultInjector& with_faults(fault::FaultPlan plan, std::uint64_t seed = 7) {
    faults = std::make_unique<fault::FaultInjector>(sim, std::move(plan), seed);
    faults->attach(*network);
    return *faults;
  }

  st::SubtransportLayer& st(rms::HostId id) { return *nodes.at(id - 1).st; }
  SimHost& host(rms::HostId id) { return *nodes.at(id - 1).host; }
};

/// Two clean (zero-BER) Ethernet segments, every host on both, each host
/// running an ST with a path manager registered on both fabrics — the
/// minimal world where failover (and striping) has somewhere to go.
struct TwoNetWorld {
  sim::Simulator sim;
  std::unique_ptr<net::EthernetNetwork> net_a, net_b;
  std::unique_ptr<netrms::NetRmsFabric> fab_a, fab_b;
  struct Node {
    std::unique_ptr<SimHost> host;
    std::unique_ptr<st::SubtransportLayer> st;
    // Declared after st: destroyed first, so it can detach its observer.
    std::unique_ptr<path::PathManager> path;
  };
  std::vector<Node> nodes;
  std::unique_ptr<fault::FaultInjector> faults;

  explicit TwoNetWorld(int n, net::NetworkTraits traits_a = net::ethernet_traits("eth-a"),
                       net::NetworkTraits traits_b = net::ethernet_traits("eth-b"),
                       path::PathConfig pc = {}) {
    net_a = std::make_unique<net::EthernetNetwork>(sim, std::move(traits_a), 1);
    net_b = std::make_unique<net::EthernetNetwork>(sim, std::move(traits_b), 2);
    fab_a = std::make_unique<netrms::NetRmsFabric>(sim, *net_a);
    fab_b = std::make_unique<netrms::NetRmsFabric>(sim, *net_b);
    for (int i = 1; i <= n; ++i) {
      Node node;
      node.host = std::make_unique<SimHost>(static_cast<rms::HostId>(i), sim);
      fab_a->register_host(node.host->id, node.host->cpu, node.host->ports);
      fab_b->register_host(node.host->id, node.host->cpu, node.host->ports);
      node.st = std::make_unique<st::SubtransportLayer>(
          sim, node.host->id, node.host->cpu, node.host->ports);
      node.st->add_network(*fab_a);
      node.st->add_network(*fab_b);
      node.path = std::make_unique<path::PathManager>(sim, *node.st,
                                                      node.host->ports, pc);
      node.path->add_network(*fab_a);
      node.path->add_network(*fab_b);
      nodes.push_back(std::move(node));
    }
  }

  /// Interposes a scripted fault plan on segment A only (B stays clean).
  fault::FaultInjector& with_faults_on_a(fault::FaultPlan plan, std::uint64_t seed = 7) {
    faults = std::make_unique<fault::FaultInjector>(sim, std::move(plan), seed);
    faults->attach(*net_a);
    return *faults;
  }

  st::SubtransportLayer& st(rms::HostId id) { return *nodes.at(id - 1).st; }
  path::PathManager& path(rms::HostId id) { return *nodes.at(id - 1).path; }
  SimHost& host(rms::HostId id) { return *nodes.at(id - 1).host; }
};

/// A generous best-effort request that any clean network accepts. Tests on
/// deliberately lossy media should pass an explicit `acceptable_ber` of 1.0
/// — the default tolerates realistic residual loss, not "every bit flips".
inline rms::Request loose_request(std::uint64_t capacity = 8192,
                                  std::uint64_t max_message = 512,
                                  double acceptable_ber = 1e-6) {
  rms::Params p;
  p.capacity = capacity;
  p.max_message_size = max_message;
  p.delay.type = rms::BoundType::kBestEffort;
  p.delay.a = sec(10);
  p.delay.b_per_byte = usec(100);
  p.bit_error_rate = acceptable_ber;
  rms::Request req = rms::exact_request(p);
  req.acceptable.capacity = max_message;  // loose: take any capacity that fits
  return req;
}

}  // namespace dash::testing

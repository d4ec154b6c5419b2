// DashNode: one simulated DASH host, fully assembled.
//
// Bundles the pieces every host needs — CPU scheduler, port registry,
// subtransport layer, and (lazily) an RKOM node — so applications,
// examples, and tests don't re-wire the stack by hand. This is the
// intended top-level entry point of the library.
#pragma once

#include <memory>

#include "netrms/fabric.h"
#include "path/path.h"
#include "rkom/rkom.h"
#include "rms/rms.h"
#include "sim/cpu_scheduler.h"
#include "sim/simulator.h"
#include "st/st.h"

namespace dash::node {

using rms::HostId;
using rms::Label;

struct NodeConfig {
  sim::CpuPolicy cpu_policy = sim::CpuPolicy::kEdf;
  st::StConfig st;
  path::PathConfig path;
  rkom::RkomConfig rkom;
};

class DashNode {
 public:
  DashNode(sim::Simulator& sim, HostId id, NodeConfig config = {})
      : sim_(sim),
        id_(id),
        config_(config),
        cpu_(std::make_unique<sim::CpuScheduler>(sim, config.cpu_policy)),
        st_(std::make_unique<st::SubtransportLayer>(sim, id, *cpu_, ports_,
                                                    config.st)) {
    if (config_.path.enabled) {
      path_ = std::make_unique<path::PathManager>(sim, *st_, ports_, config_.path);
    }
  }

  DashNode(const DashNode&) = delete;
  DashNode& operator=(const DashNode&) = delete;

  /// Attaches this node to a network: registers the host with the fabric
  /// and makes the network available to the subtransport layer (and the
  /// path manager, which scores it as a failover candidate).
  void join(netrms::NetRmsFabric& fabric) {
    fabric.register_host(id_, *cpu_, ports_);
    st_->add_network(fabric);
    if (path_ != nullptr) path_->add_network(fabric);
  }

  /// Creates an ST RMS to `target` (see SubtransportLayer::create).
  Result<std::unique_ptr<rms::Rms>> create_stream(const rms::Request& request,
                                                  const Label& target) {
    return st_->create(request, target);
  }

  /// Binds a receive port. The caller keeps ownership of `port`.
  void bind(rms::PortId id, rms::Port* port) { ports_.bind(id, port); }
  void unbind(rms::PortId id) { ports_.unbind(id); }

  /// The RKOM request/reply endpoint, constructed on first use (§3.3).
  rkom::RkomNode& rkom() {
    if (rkom_ == nullptr) {
      rkom_ = std::make_unique<rkom::RkomNode>(*st_, ports_, config_.rkom);
    }
    return *rkom_;
  }

  HostId id() const { return id_; }
  sim::Simulator& simulator() { return sim_; }
  sim::CpuScheduler& cpu() { return *cpu_; }
  rms::PortRegistry& ports() { return ports_; }
  st::SubtransportLayer& st() { return *st_; }

  /// The path manager; nullptr when NodeConfig::path.enabled is false.
  path::PathManager* path() { return path_.get(); }

 private:
  sim::Simulator& sim_;
  HostId id_;
  NodeConfig config_;
  rms::PortRegistry ports_;
  std::unique_ptr<sim::CpuScheduler> cpu_;
  std::unique_ptr<st::SubtransportLayer> st_;
  std::unique_ptr<rkom::RkomNode> rkom_;
  // Declared last: destroyed first, so its destructor can still detach the
  // observer from st_ and unbind its probe port from ports_.
  std::unique_ptr<path::PathManager> path_;
};

}  // namespace dash::node

// Shared scaffolding for the experiment benches (see DESIGN.md §4).
//
// Each bench binary regenerates one figure/claim of the paper as a printed
// table. Worlds are assembled here; the benches sweep parameters and
// report the series.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/datagram.h"
#include "net/ethernet.h"
#include "net/internet.h"
#include "netrms/fabric.h"
#include "rkom/rkom.h"
#include "rms/rms.h"
#include "sim/cpu_scheduler.h"
#include "sim/simulator.h"
#include "st/st.h"
#include "telemetry/export.h"
#include "transport/stream.h"
#include "util/stats.h"
#include "workload/workload.h"

namespace dash::bench {

/// One simulated machine with the full DASH stack.
struct Node {
  rms::HostId id;
  std::unique_ptr<sim::CpuScheduler> cpu;
  rms::PortRegistry ports;
  std::unique_ptr<st::SubtransportLayer> st;
};

/// Hosts 1..n on an Ethernet-like segment.
struct Lan {
  sim::Simulator sim;
  std::unique_ptr<net::EthernetNetwork> network;
  std::unique_ptr<netrms::NetRmsFabric> fabric;
  std::vector<std::unique_ptr<Node>> nodes;

  explicit Lan(int n, net::NetworkTraits traits = net::ethernet_traits(),
               std::uint64_t seed = 1,
               net::Discipline discipline = net::Discipline::kDeadline,
               sim::CpuPolicy cpu_policy = sim::CpuPolicy::kEdf,
               st::StConfig st_config = {}) {
    network =
        std::make_unique<net::EthernetNetwork>(sim, std::move(traits), seed, discipline);
    fabric = std::make_unique<netrms::NetRmsFabric>(sim, *network);
    for (int i = 1; i <= n; ++i) {
      auto node = std::make_unique<Node>();
      node->id = static_cast<rms::HostId>(i);
      node->cpu = std::make_unique<sim::CpuScheduler>(sim, cpu_policy);
      fabric->register_host(node->id, *node->cpu, node->ports);
      node->st = std::make_unique<st::SubtransportLayer>(sim, node->id, *node->cpu,
                                                         node->ports, st_config);
      node->st->add_network(*fabric);
      nodes.push_back(std::move(node));
    }
  }

  Node& node(rms::HostId id) { return *nodes.at(id - 1); }
};

/// `left` and `right` host groups behind a two-gateway dumbbell.
struct Wan {
  sim::Simulator sim;
  std::unique_ptr<net::InternetNetwork> network;
  std::unique_ptr<netrms::NetRmsFabric> fabric;
  std::map<rms::HostId, std::unique_ptr<Node>> nodes;

  Wan(std::vector<rms::HostId> left, std::vector<rms::HostId> right,
      net::NetworkTraits traits = net::internet_traits(), std::uint64_t seed = 1,
      net::Discipline discipline = net::Discipline::kDeadline) {
    network = net::make_dumbbell(sim, std::move(traits), seed, left, right, discipline);
    fabric = std::make_unique<netrms::NetRmsFabric>(sim, *network);
    for (auto side : {&left, &right}) {
      for (rms::HostId id : *side) {
        auto node = std::make_unique<Node>();
        node->id = id;
        node->cpu = std::make_unique<sim::CpuScheduler>(sim, sim::CpuPolicy::kEdf);
        fabric->register_host(id, *node->cpu, node->ports);
        node->st = std::make_unique<st::SubtransportLayer>(sim, id, *node->cpu,
                                                           node->ports);
        node->st->add_network(*fabric);
        nodes[id] = std::move(node);
      }
    }
  }

  Node& node(rms::HostId id) { return *nodes.at(id); }
};

/// A saturating feeder for a StreamSender (keeps the IPC port full).
class Feeder {
 public:
  explicit Feeder(transport::StreamSender& sender, std::size_t total = 0)
      : sender_(sender), total_(total) {
    sender_.on_writable([this] { fill(); });
    fill();
  }

  std::size_t written() const { return written_; }
  bool done() const { return total_ != 0 && written_ >= total_; }

 private:
  void fill() {
    while (total_ == 0 || written_ < total_) {
      const std::size_t n =
          total_ == 0 ? 4096 : std::min<std::size_t>(4096, total_ - written_);
      if (!sender_.write(patterned_bytes(n, written_)).ok()) return;
      written_ += n;
    }
  }

  transport::StreamSender& sender_;
  std::size_t total_;
  std::size_t written_ = 0;
};

/// Machine-readable bench results. Each printed table row that matters for
/// the perf trajectory is also record()ed here; the destructor writes
/// BENCH_<name>.json — a JSON array of {metric, value, unit, params}
/// objects — into the working directory, so CI and scripts can diff runs
/// without scraping stdout.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  void record(const std::string& metric, double value, const std::string& unit,
              const std::map<std::string, std::string>& params = {}) {
    std::string row = "  {\"metric\":\"" + telemetry::json_escape(metric) +
                      "\",\"value\":" + telemetry::json_number(value) +
                      ",\"unit\":\"" + telemetry::json_escape(unit) + "\"";
    if (!params.empty()) {
      row += ",\"params\":{";
      bool first = true;
      for (const auto& [k, v] : params) {
        if (!first) row += ',';
        first = false;
        row += "\"" + telemetry::json_escape(k) + "\":\"" +
               telemetry::json_escape(v) + "\"";
      }
      row += '}';
    }
    rows_.push_back(row + '}');
  }

  ~BenchJson() {
    std::string out = "[\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out += rows_[i];
      if (i + 1 < rows_.size()) out += ',';
      out += '\n';
    }
    out += "]\n";
    const std::string path = "BENCH_" + name_ + ".json";
    if (telemetry::write_file(path, out).ok()) {
      std::printf("\nwrote %s (%zu results)\n", path.c_str(), rows_.size());
    }
  }

 private:
  std::string name_;
  std::vector<std::string> rows_;
};

/// A baseline file: one "key value" pair per line. Empty when absent.
inline std::map<std::string, double> read_baseline(const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream in(path);
  std::string key;
  double value = 0;
  while (in >> key >> value) out[key] = value;
  return out;
}

/// Which way a gated metric improves.
enum class Better { kHigher, kLower };

/// The regression gate of the perf-trajectory benches. CLI:
///   --write-baseline <path>   write the current numbers as the new baseline
///   --check <path> [tol%]     fail when a metric the baseline also holds
///                             regresses more than tol% (default 20)
class BaselineGate {
 public:
  BaselineGate(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--write-baseline") == 0 && i + 1 < argc) {
        write_path_ = argv[++i];
      } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
        check_path_ = argv[++i];
        if (i + 1 < argc) tolerance_pct_ = std::atof(argv[++i]);
      }
    }
  }

  bool checking() const { return !check_path_.empty(); }

  /// Writes `current` when asked to, then checks it when asked to. A
  /// higher-is-better metric may fall to base·(1 − tol) − slack, a
  /// lower-is-better one rise to base·(1 + tol) + slack; the absolute
  /// slack keeps near-zero baselines gateable. Prints every regression,
  /// or "<name> gate passed"; false on a regression or a missing baseline.
  bool passes(const char* name, const std::map<std::string, double>& current,
              Better better, double slack) const {
    if (!write_path_.empty()) {
      std::ofstream out(write_path_);
      for (const auto& [k, v] : current) out << k << ' ' << v << '\n';
      std::printf("wrote baseline to %s\n", write_path_.c_str());
    }
    if (!checking()) return true;
    const auto base = read_baseline(check_path_);
    if (base.empty()) {
      std::fprintf(stderr, "no baseline at %s\n", check_path_.c_str());
      return false;
    }
    const double tol = tolerance_pct_ / 100.0;
    const bool higher = better == Better::kHigher;
    bool ok = true;
    for (const auto& [key, base_v] : base) {
      auto it = current.find(key);
      if (it == current.end()) continue;
      const double limit =
          higher ? base_v * (1.0 - tol) - slack : base_v * (1.0 + tol) + slack;
      if (higher ? it->second < limit : it->second > limit) {
        std::fprintf(stderr, "REGRESSION: %s %.4f %c limit %.4f (baseline %.4f)\n",
                     key.c_str(), it->second, higher ? '<' : '>', limit, base_v);
        ok = false;
      }
    }
    if (ok) std::printf("%s gate passed (tolerance %.0f%%)\n", name, tolerance_pct_);
    return ok;
  }

 private:
  std::string write_path_;
  std::string check_path_;
  double tolerance_pct_ = 20.0;
};

inline void title(const char* id, const char* what) {
  std::printf("\n================================================================\n");
  std::printf("%s  %s\n", id, what);
  std::printf("================================================================\n");
}

inline void note(const char* text) { std::printf("%s\n", text); }

}  // namespace dash::bench

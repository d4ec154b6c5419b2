// Delivery evidence for model-based congestion control (DESIGN.md §13).
//
// The paper's §4.4 separates capacity enforcement from the transfer
// protocol; the cc subsystem supplies a *model-based* enforcer whose
// inputs all come from here:
//
//   * DeliveryRateSampler — hands every send a snapshot of the cumulative
//     delivered count (the caller stores it), and turns each
//     acknowledgement of a stored snapshot into a
//     delivered-bytes/interval bandwidth sample (the BBR delivery-rate
//     estimator shape). Retransmitted sends are marked ambiguous and
//     yield no RTT or bandwidth sample (Karn's rule).
//   * MinRttFilter — minimum round-trip time over a sliding window, the
//     propagation-delay term of the bandwidth×delay model.
//   * RttEstimator — SRTT/RTTVAR smoothing (RFC 6298 coefficients) for
//     retransmission timeouts; the caller feeds only unambiguous samples.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <deque>
#include <optional>

#include "util/time.h"

namespace dash::cc {

/// Sliding-window minimum filter for round-trip times. Samples expire
/// after `window`; the running minimum is exact, not an approximation.
class MinRttFilter {
 public:
  explicit MinRttFilter(Time window = sec(10)) : window_(window) {}

  void update(Time now, Time rtt) {
    // Drop expired samples, then everything not smaller than the new one
    // (they can never be the minimum again) — the deque stays ascending.
    while (!samples_.empty() && samples_.front().at + window_ < now) {
      samples_.pop_front();
    }
    while (!samples_.empty() && samples_.back().rtt >= rtt) samples_.pop_back();
    samples_.push_back({now, rtt});
  }

  /// Current windowed minimum; -1 until the first sample.
  Time get(Time now) const {
    for (const auto& s : samples_) {
      if (s.at + window_ >= now) return s.rtt;
    }
    return -1;
  }

  bool valid() const { return !samples_.empty(); }

 private:
  struct Sample {
    Time at;
    Time rtt;
  };
  Time window_;
  std::deque<Sample> samples_;  ///< ascending rtt, ascending time
};

/// RFC 6298 smoothed RTT and variance. Feed only unambiguous samples
/// (first-transmission acks — Karn's rule); the backoff of an armed
/// retransmission timer is the caller's business.
class RttEstimator {
 public:
  void sample(Time rtt) {
    if (rtt < 0) return;
    if (!valid_) {
      srtt_ = rtt;
      rttvar_ = rtt / 2;
      valid_ = true;
      return;
    }
    const Time err = rtt > srtt_ ? rtt - srtt_ : srtt_ - rtt;
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + rtt) / 8;
  }

  bool valid() const { return valid_; }
  Time srtt() const { return srtt_; }
  Time rttvar() const { return rttvar_; }

  /// RFC 6298 RTO = SRTT + 4·RTTVAR, clamped to [min_rto, max_rto];
  /// `fallback` (the configured static timeout) until the first sample.
  Time rto(Time min_rto, Time max_rto, Time fallback) const {
    if (!valid_) return fallback;
    const Time raw = srtt_ + 4 * rttvar_;
    if (raw < min_rto) return min_rto;
    if (raw > max_rto) return max_rto;
    return raw;
  }

 private:
  bool valid_ = false;
  Time srtt_ = 0;
  Time rttvar_ = 0;
};

/// BBR-style delivery-rate sampler. Every send records the cumulative
/// delivered count at transmission time; an ack then measures how much was
/// delivered over the interval the packet was in flight:
///
///   bw = (delivered_now − delivered_at_send) / (now − delivered_time_at_send)
///
/// which is robust to ack aggregation and, unlike ack-counting windows,
/// never over-reports the bottleneck rate. The per-send record is a
/// Snapshot the caller keeps with its own per-sequence state (the stream's
/// send window), so the sampler holds no per-packet table of its own.
class DeliveryRateSampler {
 public:
  struct Sample {
    double bw_Bps = 0.0;        ///< bytes per second over the flight interval
    Time rtt = -1;              ///< -1 when ambiguous (retransmitted / late)
    bool app_limited = false;   ///< sender had no backlog: not a bw ceiling
    std::uint64_t delivered_at_send = 0;  ///< for round counting
  };

  /// The sampler's view of one send, returned by on_sent.
  struct Snapshot {
    std::size_t bytes = 0;
    Time sent_at = -1;
    Time delivered_time_snap = -1;  ///< delivered_time_ when sent
    std::uint64_t delivered_snap = 0;  ///< delivered_ when sent
    bool app_limited = false;
    bool ambiguous = false;  ///< retransmitted since (Karn)
  };

  /// Records a transmission. `app_limited` marks sends made with an empty
  /// backlog, whose delivery rate reflects the application, not the path.
  Snapshot on_sent(std::size_t bytes, Time now, bool app_limited) {
    if (delivered_time_ < 0) delivered_time_ = now;
    return Snapshot{bytes, now, delivered_time_, delivered_, app_limited, false};
  }

  /// Karn's rule: a retransmitted send can no longer yield an unambiguous
  /// RTT (and its delivery interval now spans two transmissions).
  static void on_retransmit(Snapshot& s, Time now) {
    s.ambiguous = true;
    s.sent_at = now;
  }

  /// Consumes the send `s`. Always advances the delivered count; returns a
  /// bandwidth/RTT sample only for unambiguous first-transmission acks
  /// (`rtt_eligible` lets the caller mark late transport-level acks —
  /// measured over a slower reverse path — as delivery-only evidence).
  std::optional<Sample> on_ack(const Snapshot& s, Time now, bool rtt_eligible = true) {
    delivered_ += s.bytes;
    delivered_time_ = now;
    ++acked_;

    if (s.ambiguous || !rtt_eligible) return std::nullopt;
    Sample out;
    out.rtt = now - s.sent_at;
    out.app_limited = s.app_limited;
    out.delivered_at_send = s.delivered_snap;
    const Time interval = now - s.delivered_time_snap;
    if (interval > 0) {
      out.bw_Bps = static_cast<double>(delivered_ - s.delivered_snap) /
                   to_seconds(interval);
    }
    return out;
  }

  std::uint64_t delivered_bytes() const { return delivered_; }
  std::uint64_t acked() const { return acked_; }

 private:
  std::uint64_t delivered_ = 0;
  std::uint64_t acked_ = 0;
  Time delivered_time_ = -1;
};

}  // namespace dash::cc

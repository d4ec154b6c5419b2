#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "sim/trace.h"
#include "telemetry/export.h"
#include "util/alloc_count.h"

namespace perfbench {

namespace {

std::uint64_t mix(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::byte payload_byte(std::uint64_t key, std::uint64_t pos) {
  return static_cast<std::byte>(mix(key ^ (pos >> 3) * 0x2545F4914F6CDD1Dull) >>
                                (8 * (pos & 7)));
}

void put_u64(std::byte* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::byte>(v >> (8 * i));
}

std::uint64_t get_u64(const std::byte* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

}  // namespace

// ----------------------------------------------------------------- payloads

Bytes make_payload(std::uint64_t seed, std::uint64_t id, std::size_t size) {
  Bytes b(std::max(size, kIdBytes));
  put_u64(b.data(), id);
  const std::uint64_t key = mix(seed) ^ mix(id);
  for (std::size_t i = kIdBytes; i < b.size(); ++i) b[i] = payload_byte(key, i);
  return b;
}

std::uint64_t payload_id(BytesView b) {
  return b.size() < kIdBytes ? 0 : get_u64(b.data());
}

bool payload_ok(std::uint64_t seed, BytesView b) {
  if (b.size() < kIdBytes) return false;
  const std::uint64_t key = mix(seed) ^ mix(get_u64(b.data()));
  for (std::size_t i = kIdBytes; i < b.size(); ++i) {
    if (b[i] != payload_byte(key, i)) return false;
  }
  return true;
}

Bytes stream_bytes(std::uint64_t seed, std::uint64_t stream, std::uint64_t offset,
                   std::size_t n) {
  Bytes b(n);
  const std::uint64_t key = mix(seed) ^ mix(stream + 0x5712ea11ull);
  for (std::size_t i = 0; i < n; ++i) b[i] = payload_byte(key, offset + i);
  return b;
}

bool stream_bytes_ok(std::uint64_t seed, std::uint64_t stream, std::uint64_t offset,
                     BytesView b) {
  const std::uint64_t key = mix(seed) ^ mix(stream + 0x5712ea11ull);
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (b[i] != payload_byte(key, offset + i)) return false;
  }
  return true;
}

// ------------------------------------------------------------------ helpers

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  // VmHWM rather than ru_maxrss: Linux carries ru_maxrss across execve, so
  // a process started from a larger parent (run.py's Python) would report
  // the parent's peak instead of its own.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::uint64_t allocations() { return dash::alloc_count::allocations(); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// ------------------------------------------------------------------ tracing

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kEngine: return "engine.run";
    case SpanKind::kStSubmit: return "st.submit";
    case SpanKind::kTransportWrite: return "transport.write";
    case SpanKind::kRkomCall: return "rkom.call";
    case SpanKind::kNetSend: return "net.send";
    case SpanKind::kNetSink: return "net.sink";
    case SpanKind::kDeliver: return "app.deliver";
    case SpanKind::kCount: break;
  }
  return "?";
}

Probe::Probe() : origin_(std::chrono::steady_clock::now()) {
  stack_.reserve(16);
  kept_.reserve(kKeep);
}

std::int64_t Probe::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void Probe::begin(SpanKind kind, std::uint64_t msg_id) {
  Open o;
  o.msg_id = msg_id;
  o.index = next_index_++;
  o.kind = kind;
  o.start_allocs = allocations();
  o.start_ns = now_ns();
  stack_.push_back(o);
}

void Probe::end() {
  const std::int64_t end_ns = now_ns();
  const std::uint64_t end_allocs = allocations();
  const Open o = stack_.back();
  stack_.pop_back();
  const auto dur = static_cast<std::uint64_t>(end_ns - o.start_ns);
  const std::uint64_t allocs = end_allocs - o.start_allocs;
  Totals& t = totals_[static_cast<int>(o.kind)];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur - std::min(dur, o.child_ns);
  t.self_allocs += allocs - std::min(allocs, o.child_allocs);
  std::uint32_t parent = 0;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
    stack_.back().child_allocs += allocs;
    parent = stack_.back().index;
  }
  if (kept_.size() < kKeep) {
    kept_.push_back({o.start_ns, end_ns, o.msg_id, o.index, parent, o.kind});
  }
}

std::uint64_t Probe::packet_key(const dash::net::Packet& p) {
  // The network-RMS header (type, stream, sequence) leads every payload a
  // fabric sends, so these bytes name one packet on one medium.
  std::uint64_t h = mix(p.src * 0x9E37u + p.dst);
  const BytesView b = p.payload.view();
  const std::size_t n = std::min<std::size_t>(b.size(), 17);
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ static_cast<std::uint64_t>(b[i])) * 0x100000001b3ull;
  }
  return mix(h ^ b.size());
}

void Probe::packet_sent(const dash::net::Packet& p, Time now) {
  in_flight_.emplace(packet_key(p), now);
}

void Probe::packet_arrived(const dash::net::Packet& p, Time now) {
  auto it = in_flight_.find(packet_key(p));
  if (it == in_flight_.end()) return;  // duplicate copy, quench, or unknown
  transit_ms_.push_back(dash::to_millis(now - it->second));
  in_flight_.erase(it);
}

void write_spans(const Probe& probe, const std::string& path) {
  // One trace record per span at its start time; the detail carries the
  // span's identity so the chrome-trace view can be joined back up.
  dash::sim::Trace trace;
  std::vector<Probe::Span> spans = probe.kept();
  std::stable_sort(spans.begin(), spans.end(),
                   [](const auto& a, const auto& b) { return a.start_ns < b.start_ns; });
  for (const auto& s : spans) {
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "%s span=%u parent=%u msg=%llu end_ns=%lld dur_ns=%lld",
                  span_name(s.kind), s.index, s.parent,
                  static_cast<unsigned long long>(s.msg_id),
                  static_cast<long long>(s.end_ns),
                  static_cast<long long>(s.end_ns - s.start_ns));
    trace.record(s.start_ns, span_name(s.kind), detail);
  }
  const dash::Status st =
      dash::telemetry::write_file(path, dash::telemetry::to_chrome_trace(trace));
  if (!st.ok()) std::fprintf(stderr, "span export failed: %s\n", st.error().message.c_str());
}

// ----------------------------------------------------------- TracedNetwork

TracedNetwork::TracedNetwork(dash::net::Network& inner, Probe* probe)
    : Network(inner.simulator(), inner.traits()), inner_(inner), probe_(probe) {
  inner_.on_down([this] {
    down_ = true;
    notify_down();
  });
  down_ = inner_.down();
}

void TracedNetwork::attach(dash::net::HostId host, dash::net::PacketSink sink) {
  sync_down();
  inner_.attach(host, [this, sink = std::move(sink)](dash::net::Packet p) {
    if (probe_ == nullptr || !probe_->active()) {
      sink(std::move(p));
      return;
    }
    probe_->packet_arrived(p, sim_.now());
    SpanScope span(probe_, SpanKind::kNetSink);
    sink(std::move(p));
  });
}

bool TracedNetwork::attached(dash::net::HostId host) const {
  return inner_.attached(host);
}

void TracedNetwork::detach(dash::net::HostId host) {
  sync_down();
  inner_.detach(host);
}

bool TracedNetwork::send(dash::net::Packet p) {
  sync_down();
  ++sends_;
  if (probe_ == nullptr || !probe_->active()) return inner_.send(std::move(p));
  probe_->packet_sent(p, sim_.now());
  SpanScope span(probe_, SpanKind::kNetSend);
  return inner_.send(std::move(p));
}

bool TracedNetwork::reserve_stream(std::uint64_t stream, dash::net::HostId src,
                                   dash::net::HostId dst, std::uint64_t bytes) {
  sync_down();
  return inner_.reserve_stream(stream, src, dst, bytes);
}

void TracedNetwork::release_stream(std::uint64_t stream) {
  inner_.release_stream(stream);
}

void TracedNetwork::set_down(bool down) {
  inner_.set_down(down);  // going down re-enters through the on_down mirror
  down_ = inner_.down();
}

}  // namespace perfbench

#include "layers.h"

#include "fault/fault.h"
#include "net/ethernet.h"
#include "net/internet.h"
#include "net/udp/udp.h"
#include "path/path.h"
#include "path/stripe.h"
#include "rkom/rkom.h"
#include "rt/driver.h"
#include "st/st.h"
#include "transport/stream.h"

namespace perfbench {

namespace {

double u(std::uint64_t v) { return static_cast<double>(v); }

}  // namespace

Counters Layers::snapshot() const {
  Counters c;
  auto add = [&c](const char* k, double v) { c[k] += v; };
  if (sim != nullptr) {
    add("sim.executed", u(sim->stats().executed));
    add("sim.heap", u(sim->stats().scheduled_heap));
    add("sim.peak_pending", u(sim->stats().peak_pending));
  }
  for (const auto* m : media) {
    add("net.sends", u(m->sends()));
    add("net.drops.fault", u(m->stats().fault_dropped + m->stats().fault_partitioned));
  }
  for (const auto* e : ethernets) add("net.drops.queue", u(e->stats().dropped));
  for (const auto* n : internets) {
    add("net.drops.queue", u(n->drop_stats().trunk_full + n->drop_stats().access));
    add("net.drops.route", u(n->drop_stats().no_route));
  }
  for (const auto* s : sts) {
    const auto& st = s->stats();
    add("st.messages", u(st.messages_sent));
    add("st.components", u(st.components_sent));
    add("st.piggybacked", u(st.piggybacked));
    add("st.fragments", u(st.fragments_sent));
    add("st.reassembled", u(st.reassembled));
    add("st.partials", u(st.partials_discarded));
    add("st.cache_hits", u(st.cache_hits));
    add("st.net_rms_created", u(st.net_rms_created));
    add("st.control", u(st.control_messages));
    add("st.crypto_bytes", u(st.bytes_encrypted + st.bytes_macced));
    add("st.quench", u(st.quench_signals));
    add("st.replayed", u(st.handoff_replayed));
  }
  for (const auto* t : senders) {
    const auto& s = t->stats();
    add("tx.messages", u(s.messages_sent));
    add("tx.retransmits", u(s.retransmissions));
    add("tx.blocked", u(s.write_blocked));
    add("tx.rack", u(s.rack_retransmits));
    add("tx.quench", u(s.quench_signals));
    if (t->model() != nullptr) {
      add("cc.senders", 1);
      add("cc.pacing_Bps", t->model()->model().pacing_rate_Bps());
    }
  }
  for (const auto* r : receivers) {
    add("rx.messages", u(r->stats().messages));
    add("rx.duplicates", u(r->stats().duplicates));
  }
  for (const auto* k : rkoms) {
    add("rkom.calls", u(k->stats().calls));
    add("rkom.retries", u(k->stats().request_retransmissions));
    add("rkom.timeouts", u(k->stats().timeouts));
  }
  for (const auto* p : paths) {
    add("path.probes", u(p->stats().probes_sent));
    add("path.failovers", u(p->stats().failovers));
  }
  for (const auto* s : stripes) {
    add("stripe.striped", u(s->stats().striped));
    add("stripe.retransmits", u(s->stats().retransmits));
    add("stripe.rack", u(s->stats().rack_retransmits));
  }
  for (const auto* f : faults) {
    const auto& k = f->counters();
    add("fault.impaired", u(k.dropped_iid + k.dropped_burst + k.blocked_link +
                            k.blocked_partition + k.reordered + k.duplicated +
                            k.corrupted));
  }
  if (driver != nullptr) {
    add("rt.polls", u(driver->stats().polls));
    add("rt.wakeups_timer", u(driver->stats().wakeups_timer));
    add("rt.max_lateness_ns", u(static_cast<std::uint64_t>(driver->stats().max_lateness)));
  }
  for (const auto* n : udps) {
    const auto& s = n->udp_stats();
    add("udp.sent", u(s.datagrams_sent));
    add("udp.received", u(s.datagrams_received));
    add("udp.send_batches", u(s.send_batches));
    add("udp.recv_batches", u(s.recv_batches));
    add("udp.eagain", u(s.send_eagain));
  }
  return c;
}

void add_layer_metrics(RoundResult& r, const Layers& layers, const Counters& before,
                       const Counters& after, std::uint64_t msgs, double sim_seconds) {
  auto d = [&](const char* k) {
    auto a = after.find(k);
    auto b = before.find(k);
    return (a == after.end() ? 0.0 : a->second) - (b == before.end() ? 0.0 : b->second);
  };
  auto last = [&](const char* k) {
    auto a = after.find(k);
    return a == after.end() ? 0.0 : a->second;
  };
  const double m = static_cast<double>(msgs);
  const auto n = msgs;
  auto put = [&r](const char* name, double v, const char* unit, std::uint64_t base) {
    r.layer.push_back({name, v, unit, base});
  };

  put("sim.events_per_msg", ratio(d("sim.executed"), m), "count", n);
  put("sim.heap_tasks_per_msg", ratio(d("sim.heap"), m), "count", n);
  put("sim.peak_pending", last("sim.peak_pending"), "count", 1);

  put("net.pkts_per_msg", ratio(d("net.sends"), m), "count", n);
  put("net.drops.queue", d("net.drops.queue"), "count", 1);
  put("net.drops.route", d("net.drops.route"), "count", 1);
  put("net.drops.fault", d("net.drops.fault"), "count", 1);

  const double components = d("st.components");
  put("st.piggyback_ratio", ratio(d("st.piggybacked"), components), "ratio",
      static_cast<std::uint64_t>(components));
  put("st.frags_per_msg", ratio(d("st.fragments"), d("st.messages")), "count",
      static_cast<std::uint64_t>(d("st.messages")));
  const double reasm = d("st.reassembled");
  const double partials = d("st.partials");
  put("st.reassembly_ratio", ratio(reasm, reasm + partials), "ratio",
      static_cast<std::uint64_t>(reasm + partials));
  put("st.partials_discarded", partials, "count", 1);
  const double hits = d("st.cache_hits");
  put("st.cache_hit_ratio", ratio(hits, hits + d("st.net_rms_created")), "ratio",
      static_cast<std::uint64_t>(hits + d("st.net_rms_created")));
  put("st.control_msgs", d("st.control"), "count", 1);
  put("st.crypto_bytes_per_msg", ratio(d("st.crypto_bytes"), d("st.messages")), "B",
      static_cast<std::uint64_t>(d("st.messages")));

  const double tx = d("tx.messages");
  put("transport.write_blocked_ratio", ratio(d("tx.blocked"), tx), "ratio",
      static_cast<std::uint64_t>(tx));
  put("transport.retransmits_per_msg", ratio(d("tx.retransmits"), tx), "count",
      static_cast<std::uint64_t>(tx));
  put("transport.dup_ratio", ratio(d("rx.duplicates"), d("rx.messages")), "ratio",
      static_cast<std::uint64_t>(d("rx.messages")));

  const double calls = d("rkom.calls");
  put("rkom.retry_ratio", ratio(d("rkom.retries"), calls), "ratio",
      static_cast<std::uint64_t>(calls));
  put("rkom.timeouts", d("rkom.timeouts"), "count", 1);

  put("path.probes_per_s", ratio(d("path.probes"), sim_seconds), "1/s", 1);
  const double failovers = d("path.failovers");
  put("path.replayed_per_failover", ratio(d("st.replayed"), failovers), "count",
      static_cast<std::uint64_t>(failovers));
  const double striped = d("stripe.striped");
  put("path.stripe.retransmits_per_msg", ratio(d("stripe.retransmits"), striped), "count",
      static_cast<std::uint64_t>(striped));

  put("cc.rack_retransmits_per_msg",
      ratio(d("tx.rack") + d("stripe.rack"), tx + striped), "count",
      static_cast<std::uint64_t>(tx + striped));
  put("cc.pacing_rate_kBps", ratio(last("cc.pacing_Bps"), last("cc.senders")) / 1e3,
      "kB/s", static_cast<std::uint64_t>(last("cc.senders")));
  put("cc.quench_signals", d("tx.quench") + d("st.quench"), "count", 1);

  put("fault.impaired_pkts", d("fault.impaired"), "count", 1);

  const double polls = d("rt.polls");
  put("rt.polls_per_msg", ratio(polls, m), "count", n);
  put("rt.timer_wakeup_ratio", ratio(d("rt.wakeups_timer"), polls), "ratio",
      static_cast<std::uint64_t>(polls));

  const double sent = d("udp.sent");
  put("udp.dgrams_per_send_batch", ratio(sent, d("udp.send_batches")), "count",
      static_cast<std::uint64_t>(d("udp.send_batches")));
  put("udp.dgrams_per_recv_batch", ratio(d("udp.received"), d("udp.recv_batches")),
      "count", static_cast<std::uint64_t>(d("udp.recv_batches")));
  put("udp.lost_dgrams", sent - d("udp.received"), "count",
      static_cast<std::uint64_t>(sent));
  put("udp.send_eagain", d("udp.eagain"), "count", 1);
  if (layers.driver != nullptr) {
    put("rt.max_lateness_us", last("rt.max_lateness_ns") / 1e3, "us", 1);
  }
}

void digest_counters(Digest& d, const Counters& before, const Counters& after) {
  for (const auto& [k, v] : after) {
    auto b = before.find(k);
    d.add_double(v - (b == before.end() ? 0.0 : b->second));
  }
}

}  // namespace perfbench

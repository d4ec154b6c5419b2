// Tests for the zero-copy datapath (DESIGN.md §9): payload-aliasing safety
// across the Buffer-based send/receive paths, storage sharing between
// network packets and delivered messages, fragment-slice lifetime across
// reassembly discards, the counting-allocator bound that pins down the
// "serialize once into an arena" property of the ST send path, and the
// steady-state check that no engine event or CPU work item falls back to a
// heap-allocated closure (DESIGN.md §10).
//
// It also pins down the storage contract of `Buffer` / `BufferWriter`
// (one block per buffer) and the allocation cost of a datagram through
// the real-UDP backend (DESIGN.md §16).
//
// This binary links dash_alloc_count first, so the global operator
// new/delete are the counting versions.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "fault/fault.h"
#include "net/udp/udp.h"
#include "rkom/rkom.h"
#include "rt/driver.h"
#include "st/st.h"
#include "test_helpers.h"
#include "util/alloc_count.h"
#include "transport/stream.h"
#include "util/buffer.h"
#include "util/serialize.h"

namespace dash::st {
namespace {

using dash::testing::StWorld;

rms::Request datapath_request(std::uint64_t capacity = 64 * 1024,
                              std::uint64_t mms = 16 * 1024) {
  rms::Params desired;
  desired.capacity = capacity;
  desired.max_message_size = mms;
  desired.delay.type = rms::BoundType::kBestEffort;
  desired.delay.a = msec(20);
  desired.delay.b_per_byte = usec(5);
  desired.bit_error_rate = 1e-6;

  rms::Params acceptable = desired;
  acceptable.delay.a = sec(5);
  acceptable.delay.b_per_byte = usec(500);
  acceptable.bit_error_rate = 1.0;
  acceptable.capacity = 1;
  acceptable.max_message_size = 1;
  return rms::Request{desired, acceptable};
}

// ------------------------------------------------------ buffer storage

// A writer serializes into the block it hands over: finish() allocates
// nothing, so one encoded message is one allocation.
TEST(BufferStorage, FinishHandsOverTheWritersOneBlock) {
  REQUIRE_ALLOC_COUNT();
  alloc_count::Scope scope;
  BufferWriter w(13, 4);
  w.u8(1);
  w.u64(2);
  w.u32(3);
  const Buffer b = w.finish();
  EXPECT_EQ(scope.allocations(), 1u);
  EXPECT_EQ(b.size(), 13u);
  EXPECT_EQ(b.headroom(), 4u);
  Reader r(b);
  EXPECT_EQ(*r.u8(), 1u);
  EXPECT_EQ(*r.u64(), 2u);
  EXPECT_EQ(*r.u32(), 3u);
}

TEST(BufferStorage, CopyFromBytesIsOneBlock) {
  REQUIRE_ALLOC_COUNT();
  const Bytes src = patterned_bytes(100, 1);
  alloc_count::Scope scope;
  const Buffer a{BytesView(src)};
  const Buffer b = src;  // the implicit conversion copies too
  const Buffer none{BytesView{}};
  EXPECT_EQ(scope.allocations(), 2u);
  EXPECT_TRUE(a == src);
  EXPECT_TRUE(b == src);
  EXPECT_FALSE(a.shares_storage(b));
  EXPECT_TRUE(none.empty());
}

TEST(BufferStorage, SliceAndHeadroomPrependShareStorage) {
  REQUIRE_ALLOC_COUNT();
  BufferWriter w(8, 4);
  w.u64(0x0807060504030201ull);
  const Buffer body = w.finish();
  const std::array<std::byte, 3> header = {std::byte{0xA}, std::byte{0xB},
                                           std::byte{0xC}};
  alloc_count::Scope scope;
  const Buffer mid = body.slice(2, 4);
  const Buffer framed = body.prepend(header);
  EXPECT_EQ(scope.allocations(), 0u);
  EXPECT_TRUE(mid.shares_storage(body));
  EXPECT_EQ(mid.size(), 4u);
  EXPECT_EQ(mid[0], std::byte{3});
  EXPECT_TRUE(framed.shares_storage(body));
  EXPECT_EQ(framed.size(), 11u);
  EXPECT_EQ(framed.headroom(), 1u);
  EXPECT_EQ(framed[0], std::byte{0xA});
  EXPECT_EQ(framed[3], std::byte{1});
}

TEST(BufferStorage, PrependWithoutHeadroomCopies) {
  REQUIRE_ALLOC_COUNT();
  const Buffer body = to_bytes("payload");
  const Buffer inner = body.slice(1, 3);  // no headroom granted
  const std::array<std::byte, 2> header = {std::byte{'>'}, std::byte{' '}};
  alloc_count::Scope scope;
  const Buffer framed = body.prepend(header);
  const Buffer framed_inner = inner.prepend(header);
  EXPECT_EQ(scope.allocations(), 2u);
  EXPECT_FALSE(framed.shares_storage(body));
  EXPECT_FALSE(framed_inner.shares_storage(body));
  EXPECT_EQ(to_string(framed), "> payload");
  EXPECT_EQ(to_string(framed_inner), "> ayl");
  EXPECT_EQ(to_string(body), "payload");
}

TEST(BufferStorage, MutateCopiesOnlyWhenShared) {
  REQUIRE_ALLOC_COUNT();
  Buffer a = to_bytes("abcd");
  alloc_count::Scope scope;
  a.mutate()[0] = std::byte{'x'};  // sole owner: in place
  EXPECT_EQ(scope.allocations(), 0u);
  Buffer b = a;
  b.mutate()[0] = std::byte{'y'};  // shared: copies first
  EXPECT_EQ(scope.allocations(), 1u);
  EXPECT_FALSE(b.shares_storage(a));
  EXPECT_EQ(to_string(a), "xbcd");
  EXPECT_EQ(to_string(b), "ybcd");
  a.flip_bit(1, 0x01);  // sole owner again
  EXPECT_EQ(scope.allocations(), 1u);
  EXPECT_EQ(to_string(a), "xccd");
  Buffer none = a.slice(2, 0);  // an empty range has nothing to copy
  EXPECT_TRUE(none.mutate().empty());
  EXPECT_EQ(scope.allocations(), 1u);
}

TEST(BufferStorage, MovedFromBufferIsEmpty) {
  Buffer a = patterned_bytes(32, 2);
  Buffer b = std::move(a);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(a.view().empty());
  EXPECT_FALSE(a.shares_storage(b));
  EXPECT_EQ(b.size(), 32u);
  Buffer c;
  c = std::move(b);
  EXPECT_EQ(b.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.size(), 32u);
  EXPECT_TRUE(c == patterned_bytes(32, 2));
}

TEST(BufferStorage, GrowthPastTheReserveKeepsBytesAndPatchOffsets) {
  BufferWriter w(4, 2);
  const std::size_t at = w.pos();
  w.u32(0);  // placeholder, patched after growth
  for (int i = 0; i < 100; ++i) w.u8(static_cast<std::uint8_t>(i));
  w.patch_u32(at, 0xAABBCCDDu);
  w.patch_u8(at + 4 + 50, 0xEE);
  const Buffer b = w.finish();
  EXPECT_EQ(b.size(), 104u);
  EXPECT_EQ(b.headroom(), 2u);
  Reader r(b);
  EXPECT_EQ(*r.u32(), 0xAABBCCDDu);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(*r.u8(), i == 50 ? 0xEE : i) << "byte " << i;
  }
}

TEST(BufferStorage, ConcatJoinsPartsIntoOneBlock) {
  REQUIRE_ALLOC_COUNT();
  const std::array<Buffer, 3> parts = {Buffer(to_bytes("abc")), Buffer(),
                                       Buffer(to_bytes("defg"))};
  alloc_count::Scope scope;
  const Buffer joined = Buffer::concat(parts);
  EXPECT_EQ(scope.allocations(), 1u);
  EXPECT_EQ(to_string(joined), "abcdefg");
  EXPECT_FALSE(joined.shares_storage(parts[0]));
}

// ------------------------------------------------------- aliasing safety

// The ownership rule under test: the sender's source bytes are copied
// exactly once (the gather-write into the arena), so a client that mutates
// its source after send() — even before the simulated CPU stage has
// serialized the message — cannot corrupt the data in flight.
TEST(Datapath, SenderMutationAfterSendCannotCorruptDelivery) {
  // The last size fragments (> one 1500-byte frame).
  for (const std::size_t size : {std::size_t{64}, std::size_t{700},
                                 std::size_t{6000}}) {
    StWorld world(2);
    rms::Port port;
    world.host(2).ports.bind(50, &port);
    auto rms = world.st(1).create(datapath_request(), {2, 50});
    ASSERT_TRUE(rms.ok()) << rms.error().message;

    Bytes source = patterned_bytes(size, size);
    const Bytes original = source;
    rms::Message m;
    m.data = source;  // aliasing-safe: assignment from an lvalue copies
    ASSERT_TRUE(rms.value()->send(std::move(m)).ok());
    // Scribble over the client's buffer while the message is still queued
    // behind establishment and the send-side CPU stage.
    for (std::byte& b : source) b = static_cast<std::byte>(0xEE);
    world.sim.run();

    ASSERT_EQ(port.delivered(), 1u) << "size " << size;
    auto delivered = port.poll();
    ASSERT_TRUE(delivered.has_value());
    EXPECT_TRUE(delivered->data == original) << "size " << size;
  }
}

// Receive-side aliasing: a plaintext unfragmented component is delivered as
// a slice of the very packet buffer the network handed up — no copy — and
// a wiretap holding the same packet sees consistent bytes.
TEST(Datapath, DeliveryIsSliceOfPacketBuffer) {
  StWorld world(2);
  net::Eavesdropper tap(*world.network);
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto rms = world.st(1).create(datapath_request(), {2, 50});
  ASSERT_TRUE(rms.ok()) << rms.error().message;

  rms::Message m;
  m.data = patterned_bytes(900, 1);
  ASSERT_TRUE(rms.value()->send(std::move(m)).ok());
  world.sim.run();

  ASSERT_EQ(port.delivered(), 1u);
  auto delivered = port.poll();
  ASSERT_TRUE(delivered.has_value());
  bool shares = false;
  for (const net::Packet& p : tap.captured()) {
    if (delivered->data.shares_storage(p.payload)) shares = true;
  }
  EXPECT_TRUE(shares) << "delivered payload should alias a captured packet";
}

// Send-side arena property: every fragment packet of one burst is a slice
// of a single allocation.
TEST(Datapath, FragmentBurstSharesOneAllocation) {
  StWorld world(2);
  net::Eavesdropper tap(*world.network);
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto rms = world.st(1).create(datapath_request(), {2, 50});
  ASSERT_TRUE(rms.ok()) << rms.error().message;

  rms::Message m;
  m.data = patterned_bytes(6000, 2);  // > 1500-byte frames: fragments
  ASSERT_TRUE(rms.value()->send(std::move(m)).ok());
  world.sim.run();
  ASSERT_EQ(port.delivered(), 1u);
  ASSERT_GE(world.st(1).stats().fragments_sent, 4u);

  // The largest packets on the wire are the fragment packets.
  std::vector<const net::Packet*> frags;
  for (const net::Packet& p : tap.captured()) {
    if (p.size() > 1000) frags.push_back(&p);
  }
  ASSERT_GE(frags.size(), 4u);
  for (const net::Packet* p : frags) {
    EXPECT_TRUE(p->payload.shares_storage(frags.front()->payload));
  }
}

// ------------------------------------- reassembly lifetime and discards

// Fragment slices hold their packet's storage alive inside the reassembly
// table. Dropping a fragment forces a §4.3 discard when the next message
// lands; the discarded slices must release cleanly and later traffic must
// be delivered intact.
TEST(Datapath, FragmentSlicesSurviveDiscardPartial) {
  StWorld world(2);
  // Lossy window covering the first burst's time on the wire: some
  // fragments of the first message die, the follow-up (sent after the
  // window closes) sails through. The seed makes the mix deterministic.
  fault::FaultPlan plan;
  plan.iid_loss(0.5, {msec(10), msec(40)});
  auto& faults = world.with_faults(plan);

  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto rms = world.st(1).create(datapath_request(), {2, 50});
  ASSERT_TRUE(rms.ok()) << rms.error().message;
  world.sim.run_until(msec(10));  // establishment done before the window

  rms::Message first;
  first.data = patterned_bytes(6000, 3);
  ASSERT_TRUE(rms.value()->send(std::move(first)).ok());
  world.sim.run_until(msec(40));
  ASSERT_GT(faults.counters().dropped_iid, 0u);
  ASSERT_EQ(port.delivered(), 0u) << "first burst should lose fragments";

  const Bytes follow_up = patterned_bytes(5000, 4);
  rms::Message second;
  second.data = follow_up;
  ASSERT_TRUE(rms.value()->send(std::move(second)).ok());
  world.sim.run();

  EXPECT_GE(world.st(2).stats().partials_discarded, 1u);
  ASSERT_EQ(port.delivered(), 1u);
  auto delivered = port.poll();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_TRUE(delivered->data == follow_up);
}

// invalidate_peer mid-reassembly drops the demux entry and every fragment
// slice it holds; the conversation can then start over from scratch.
TEST(Datapath, FragmentSlicesSurviveInvalidatePeerMidReassembly) {
  StWorld world(2);
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  {
    auto rms = world.st(1).create(datapath_request(), {2, 50});
    ASSERT_TRUE(rms.ok()) << rms.error().message;
    world.sim.run_until(msec(10));
    rms::Message m;
    m.data = patterned_bytes(6000, 5);
    ASSERT_TRUE(rms.value()->send(std::move(m)).ok());
    // A 6000-byte burst spends several milliseconds on a 10 Mb/s wire;
    // stop while only a prefix of the fragments has been parked.
    world.sim.run_until(msec(13));
    rms.value()->close();
  }
  // Receiver forgets the sender mid-reassembly; the parked slices die here.
  world.st(2).invalidate_peer(1);
  world.st(1).invalidate_peer(2);
  world.sim.run();

  auto again = world.st(1).create(datapath_request(), {2, 50});
  ASSERT_TRUE(again.ok()) << again.error().message;
  const Bytes fresh = patterned_bytes(2000, 6);
  rms::Message m;
  m.data = fresh;
  ASSERT_TRUE(again.value()->send(std::move(m)).ok());
  world.sim.run();

  ASSERT_EQ(port.delivered(), 1u);
  auto delivered = port.poll();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_TRUE(delivered->data == fresh);
}

// --------------------------------------------- counting-allocator bounds

// Pin down the zero-copy claim with the counting allocator: delivering one
// fragmented N-byte message end to end allocates ~2N payload bytes — the
// gather-write into the send arena and the reassembly materialization —
// not the 5-6N of a copy-per-boundary datapath. The bound is deliberately
// loose (3N + slack for container bookkeeping) so it only fails if a
// payload-sized copy sneaks back into the path.
TEST(Datapath, EndToEndAllocationStaysNearTwoCopies) {
  if (!alloc_count::instrumented()) GTEST_SKIP() << "counting allocator absent";

  StWorld world(2);
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto rms = world.st(1).create(datapath_request(), {2, 50});
  ASSERT_TRUE(rms.ok()) << rms.error().message;

  // Warm up: establishment, channel creation, and first-use allocations.
  for (int i = 0; i < 4; ++i) {
    rms::Message warm;
    warm.data = patterned_bytes(6000, 7);
    ASSERT_TRUE(rms.value()->send(std::move(warm)).ok());
  }
  world.sim.run();
  ASSERT_EQ(port.delivered(), 4u);
  while (port.poll().has_value()) {
  }

  constexpr std::size_t kN = 12 * 1024;
  const Bytes payload = patterned_bytes(kN, 8);
  alloc_count::Scope scope;
  rms::Message m;
  m.data = payload;  // copy 0: the client's own handoff into the message
  ASSERT_TRUE(rms.value()->send(std::move(m)).ok());
  world.sim.run();
  const std::uint64_t bytes = scope.bytes();

  ASSERT_EQ(port.delivered(), 4u + 1u);  // delivered() is cumulative
  auto delivered = port.poll();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_TRUE(delivered->data == payload);
  // copy 0 (handoff) + copy 1 (arena gather) + copy 2 (reassembly concat)
  // ≈ 3N, plus ~0.6 KiB of event/container bookkeeping per fragment
  // (currently 42.6 KB in 42 allocations, deterministic). The bound sits
  // below 3N + 2·N/3 so an extra payload-sized copy (+N ≈ 12 KB)
  // regressing into the path trips it.
  EXPECT_LT(bytes, 3 * kN + 24 * 1024)
      << "end-to-end allocated " << bytes << " B for a " << kN << " B message";
}

// The piggyback path serializes straight into the channel arena: sending a
// small message end to end allocates O(packet) bytes, not multiples of it.
TEST(Datapath, PiggybackSendAllocationIsFlat) {
  if (!alloc_count::instrumented()) GTEST_SKIP() << "counting allocator absent";

  StWorld world(2);
  rms::Port port;
  world.host(2).ports.bind(50, &port);
  auto rms = world.st(1).create(datapath_request(), {2, 50});
  ASSERT_TRUE(rms.ok()) << rms.error().message;
  for (int i = 0; i < 8; ++i) {
    rms::Message warm;
    warm.data = patterned_bytes(256, 9);
    ASSERT_TRUE(rms.value()->send(std::move(warm)).ok());
    world.sim.run();
  }
  while (port.poll().has_value()) {
  }

  alloc_count::Scope scope;
  for (int i = 0; i < 16; ++i) {
    rms::Message m;
    m.data = patterned_bytes(256, 10);
    ASSERT_TRUE(rms.value()->send(std::move(m)).ok());
    world.sim.run();
  }
  ASSERT_EQ(port.delivered(), 8u + 16u);
  // Steady state averages about nine small allocations per message (141
  // for the 16); a copy-heavy path would show several payload+arena-sized
  // blocks each.
  EXPECT_LT(scope.allocations() / 16, 40u)
      << scope.allocations() << " allocations for 16 messages";
}

// ------------------------------------------------------ real UDP datagrams

// UdpNetwork allocates its recvmmsg slots and mmsghdr/iovec arrays once,
// parks its send backlog on a ring, and sends each datagram as a header
// iovec plus the packet's payload Buffer, so a datagram sent in its own
// event batch costs exactly the one payload block on receive — no encoded
// copy on send, and no fresh set of 2 KB receive slots per wakeup.
TEST(UdpDatapath, DatagramCostsOneAllocation) {
  REQUIRE_ALLOC_COUNT();
  REQUIRE_UDP();
  sim::Simulator sim;
  rt::Driver driver(sim);
  net::UdpNetwork udp(driver);
  std::size_t received = 0;
  udp.attach(1, [](net::Packet) {});
  udp.attach(2, [&received](net::Packet p) {
    if (p.size() == 200) ++received;
  });
  constexpr std::size_t kWarm = 8;
  constexpr std::size_t kCount = 64;
  std::vector<net::Packet> packets(kWarm + kCount);
  for (net::Packet& p : packets) {
    p.src = 1;
    p.dst = 2;
    p.payload = patterned_bytes(200, 3);
  }
  auto send_one = [&](std::size_t i) {
    ASSERT_TRUE(udp.send(std::move(packets[i])));
    ASSERT_TRUE(driver.run_until([&] { return received == i + 1; }, sec(2)));
  };
  for (std::size_t i = 0; i < kWarm; ++i) send_one(i);
  // Wall time moves the calendar wheel onto buckets whose vectors have not
  // grown yet; touch all of them (512 × 8.2 µs) before counting.
  for (Time t = 0; t < msec(5); t += usec(8)) sim.after(t, [] {});
  driver.run_for(msec(6));

  // No gtest assertion inside the counted loop: its bookkeeping allocates.
  alloc_count::Scope scope;
  std::size_t delivered = 0;
  for (std::size_t i = kWarm; i < kWarm + kCount; ++i) {
    if (udp.send(std::move(packets[i])) &&
        driver.run_until([&] { return received == i + 1; }, sec(2))) {
      ++delivered;
    }
  }
  const std::uint64_t allocations = scope.allocations();
  ASSERT_EQ(delivered, kCount);
  EXPECT_LE(allocations, kCount)
      << allocations << " allocations for " << kCount << " datagrams";
}

// ------------------------------------------ task storage at steady state

// Events on the packet path carry `this` and ids while the media, routers
// and CPU hold the packets, and every protocol-processing closure fits
// CpuScheduler::Task inline. Once a full stack is running it schedules no
// heap-backed task at all: not on the WAN (gateway FIFOs, transport acks,
// RKOM service time) ...
TEST(TaskStorage, DumbbellBulkAndRkomScheduleNoHeapTasks) {
  dash::testing::DumbbellWorld wan({1, 3}, {2, 4});
  std::map<rms::HostId, std::unique_ptr<SubtransportLayer>> sts;
  for (auto& [id, host] : wan.hosts) {
    sts[id] = std::make_unique<SubtransportLayer>(wan.sim, id, host->cpu, host->ports);
    sts[id]->add_network(*wan.fabric);
  }

  // Saturating reliable bulk 1 -> 4.
  transport::StreamConfig cfg;
  transport::StreamReceiver rx(*sts[4], wan.host(4).ports, 60, cfg);
  std::size_t bulk_bytes = 0;
  rx.on_data([&](Bytes b) { bulk_bytes += b.size(); });
  transport::StreamSender tx(*sts[1], wan.host(1).ports, {4, 60}, cfg,
                             transport::bulk_data_request(16 * 1024, 500));
  ASSERT_TRUE(tx.ok());
  std::function<void()> feed = [&] {
    while (tx.write(patterned_bytes(2000, bulk_bytes)).ok()) {
    }
  };
  tx.on_writable(feed);
  feed();

  // Closed-loop RKOM 3 -> 2 whose operation charges service time.
  rkom::RkomNode client(*sts[3], wan.host(3).ports);
  rkom::RkomNode server(*sts[2], wan.host(2).ports);
  server.register_operation(
      1, {[](BytesView in) { return Bytes(in.begin(), in.end()); }, usec(200)});
  int calls = 0;
  std::function<void()> call = [&] {
    client.call(2, 1, patterned_bytes(128, 4), [&](Result<Bytes> r) {
      if (r.ok()) ++calls;
      wan.sim.after(msec(25), call);
    });
  };
  call();

  wan.sim.run_until(sec(2));  // establishment and warm-up
  const sim::EngineStats before = wan.sim.stats();
  const std::size_t bytes_before = bulk_bytes;
  const int calls_before = calls;
  wan.sim.run_until(sec(10));

  EXPECT_GT(bulk_bytes - bytes_before, 500'000u);
  EXPECT_GT(calls - calls_before, 50);
  EXPECT_GT(wan.sim.stats().scheduled - before.scheduled, 10'000u);
  EXPECT_EQ(wan.sim.stats().scheduled_heap, before.scheduled_heap);
  for (auto& [id, host] : wan.hosts) {
    EXPECT_GT(host->cpu.tasks_submitted(), 0u) << "host " << id;
    EXPECT_EQ(host->cpu.heap_fallbacks(), 0u) << "host " << id;
  }
}

// ... nor on a shared Ethernet (medium FIFO, ST piggyback, fragmentation
// and reassembly).
TEST(TaskStorage, EthernetMuxSchedulesNoHeapTasks) {
  constexpr int kHosts = 4;
  constexpr int kSmallPerHost = 4;
  StWorld world(kHosts);
  std::vector<std::unique_ptr<rms::Port>> ports;
  std::vector<std::unique_ptr<rms::Rms>> small, large;
  std::uint64_t delivered = 0;
  for (rms::HostId from = 1; from <= kHosts; ++from) {
    const rms::HostId to = from % kHosts + 1;
    for (int k = 0; k <= kSmallPerHost; ++k) {
      const bool is_large = k == kSmallPerHost;
      const rms::PortId port_id = 100 + static_cast<rms::PortId>(k);
      ports.push_back(std::make_unique<rms::Port>());
      ports.back()->set_handler([&delivered](rms::Message) { ++delivered; });
      world.host(to).ports.bind(port_id, ports.back().get());
      auto created = world.st(from).create(
          is_large ? datapath_request(64 * 1024, 16 * 1024) : datapath_request(8 * 1024, 256),
          {to, port_id});
      ASSERT_TRUE(created.ok()) << created.error().message;
      (is_large ? large : small).push_back(std::move(created).value());
    }
  }

  // Every 2 ms each small stream sends 32-256 B; every 100 ms each large
  // stream sends 12 KB, which fragments on the 1500 B medium.
  int tick = 0;
  std::function<void()> send = [&] {
    for (std::size_t i = 0; i < small.size(); ++i) {
      rms::Message m;
      m.data = patterned_bytes(32 + (tick * 37 + i * 53) % 225, tick);
      (void)small[i]->send(std::move(m));
    }
    if (tick % 50 == 0) {
      for (auto& rms : large) {
        rms::Message m;
        m.data = patterned_bytes(12 * 1024, tick);
        (void)rms->send(std::move(m));
      }
    }
    ++tick;
    world.sim.after(msec(2), send);
  };
  send();

  world.sim.run_until(sec(1));  // establishment and warm-up
  const sim::EngineStats before = world.sim.stats();
  const std::uint64_t delivered_before = delivered;
  world.sim.run_until(sec(4));

  EXPECT_GT(delivered - delivered_before, 15'000u);
  EXPECT_GT(world.sim.stats().scheduled - before.scheduled, 50'000u);
  EXPECT_EQ(world.sim.stats().scheduled_heap, before.scheduled_heap);
  std::uint64_t piggybacked = 0, reassembled = 0;
  for (rms::HostId h = 1; h <= kHosts; ++h) {
    piggybacked += world.st(h).stats().piggybacked;
    reassembled += world.st(h).stats().reassembled;
    EXPECT_EQ(world.host(h).cpu.heap_fallbacks(), 0u) << "host " << h;
  }
  EXPECT_GT(piggybacked, 0u);
  EXPECT_GT(reassembled, 0u);
}

}  // namespace
}  // namespace dash::st

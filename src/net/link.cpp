#include "net/link.h"

#include <algorithm>

#include "net/traits.h"

namespace dash::net {

bool SimplexLink::send(Packet p) {
  if (down_) {
    ++stats_.dropped_down;
    return false;
  }
  if (!admit(p)) {
    ++stats_.dropped_overflow;
    return false;
  }
  if (!queue_.push(std::move(p))) {
    // admit() already checked capacity; TxQueue is configured unbounded to
    // keep one source of truth, so this cannot happen.
    ++stats_.dropped_overflow;
    return false;
  }
  ++stats_.sent;
  if (!busy_) try_transmit();
  return true;
}

bool SimplexLink::admit(const Packet& p) {
  const std::uint64_t size = p.size();
  auto it = queued_slot(p.stream);
  const bool known = it != stream_queued_.end() && it->first == p.stream;
  const std::uint64_t queued = known ? it->second : 0;
  if (config_.buffer_bytes != 0) {  // 0 = unbounded
    auto res = reservation_.find(p.stream);
    // Within the stream's reserved share a packet is always admitted;
    // beyond it, it is charged to the shared pool (buffer minus all
    // reservations).
    if (res == reservation_.end() || queued + size > res->second) {
      const std::uint64_t shared_pool = config_.buffer_bytes > reserved_total_
                                            ? config_.buffer_bytes - reserved_total_
                                            : 0;
      if (shared_queued_ + size > shared_pool) return false;
      shared_queued_ += size;
    }
  }
  if (!known) it = stream_queued_.insert(it, {p.stream, 0});
  it->second += size;
  return true;
}

SimplexLink::QueuedBytes::iterator SimplexLink::queued_slot(std::uint64_t stream) {
  return std::lower_bound(
      stream_queued_.begin(), stream_queued_.end(), stream,
      [](const auto& entry, std::uint64_t s) { return entry.first < s; });
}

void SimplexLink::note_popped(const Packet& p) {
  auto it = queued_slot(p.stream);
  if (it == stream_queued_.end() || it->first != p.stream) return;
  const std::uint64_t size = p.size();
  auto res = reservation_.find(p.stream);
  const std::uint64_t reserved = res == reservation_.end() ? 0 : res->second;
  // Bytes beyond the reservation were charged to the shared pool; release
  // from the shared pool first so the accounting mirrors admit().
  if (it->second > reserved) {
    const std::uint64_t over = std::min(size, it->second - reserved);
    shared_queued_ -= std::min(shared_queued_, over);
  }
  it->second -= std::min(it->second, size);
  if (it->second == 0) stream_queued_.erase(it);
}

bool SimplexLink::reserve(std::uint64_t stream, std::uint64_t bytes) {
  if (config_.buffer_bytes != 0 && reserved_total_ + bytes > config_.buffer_bytes) {
    return false;
  }
  release(stream);
  reservation_[stream] = bytes;
  reserved_total_ += bytes;
  return true;
}

void SimplexLink::release(std::uint64_t stream) {
  auto it = reservation_.find(stream);
  if (it == reservation_.end()) return;
  reserved_total_ -= it->second;
  reservation_.erase(it);
}

void SimplexLink::set_down(bool down) {
  const bool was_down = down_;
  down_ = down;
  if (down_ && !was_down) {
    // Flush the queue: a dead link delivers nothing.
    while (auto p = queue_.pop()) {
      note_popped(*p);
      ++stats_.dropped_down;
    }
    for (const auto& cb : down_cbs_) cb();
  }
}

void SimplexLink::try_transmit() {
  auto p = queue_.pop();
  if (!p) {
    busy_ = false;
    return;
  }
  note_popped(*p);
  busy_ = true;
  const Time tx = transmission_time(p->size() + config_.framing_bytes,
                                    config_.bits_per_second);
  stats_.busy_time += tx;
  on_wire_ = std::move(*p);
  sim_.after(tx, [this] { transmitted(); });
}

void SimplexLink::transmitted() {
  // The wire is free as soon as the last bit leaves; delivery happens after
  // propagation, possibly overlapping the next transmission. The delay is
  // the same for every packet, so each delivery event takes the FIFO head.
  propagating_.push(std::move(on_wire_));
  sim_.after(config_.propagation_delay, [this] { deliver(propagating_.pop()); });
  try_transmit();
}

void SimplexLink::deliver(Packet p) {
  if (down_) {
    ++stats_.dropped_down;
    return;
  }
  const double perr = packet_error_probability(config_.bit_error_rate, p.size());
  if (perr > 0.0 && rng_.chance(perr)) {
    p.corrupted = true;
    if (!p.payload.empty()) {
      // Flip a real bit so software checksums genuinely fail.
      const auto pos = static_cast<std::size_t>(rng_.below(p.payload.size()));
      p.payload.flip_bit(pos, static_cast<std::uint8_t>(1u << rng_.below(8)));
    }
    ++stats_.corrupted;
  }
  ++stats_.delivered;
  stats_.bytes_delivered += p.size();
  if (sink_) sink_(std::move(p));
}

}  // namespace dash::net

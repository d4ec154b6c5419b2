// Flow-controlled local IPC port (paper §4.4, sender flow control).
//
// "This is done in the DASH kernel using a flow controlled local IPC port
// for message-passing between the sender and the send protocol. A sender
// blocks when a port queue size limit is reached." In our event-driven
// model, "blocking" is a kWouldBlock status plus an on_writable callback.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>

#include "util/buffer.h"
#include "util/result.h"

namespace dash::transport {

class IpcPort {
 public:
  explicit IpcPort(std::size_t byte_limit) : limit_(byte_limit) {}

  /// True if `n` more bytes fit under the queue size limit.
  bool can_write(std::size_t n) const { return buffered_ + n <= limit_; }

  /// Queues data for the send protocol; kWouldBlock if the limit would be
  /// exceeded (the sending process must wait for on_writable). A refusal
  /// carries no message text, so it allocates nothing: a writer pumping a
  /// full port is turned away on every attempt.
  Status write(Buffer data) {
    if (!can_write(data.size())) {
      ++blocked_;
      writer_waiting_ = true;
      return make_error(Errc::kWouldBlock, {});
    }
    buffered_ += data.size();
    queue_.push_back(std::move(data));
    if (on_readable_) on_readable_();
    return Status::ok_status();
  }

  /// The send protocol reads up to `max` bytes (message boundaries within
  /// the port are not significant for a byte-stream protocol). A chunk that
  /// lies inside one write is a slice of it; only a chunk spanning writes
  /// is copied, into one block.
  Buffer read(std::size_t max) {
    const std::size_t total = std::min(max, buffered_);
    Buffer out;
    if (total == 0) return out;
    if (queue_.front().size() >= total) {
      out = queue_.front().slice(0, total);
      consume(total);
    } else {
      BufferWriter w(total);
      while (w.pos() < total) {
        const Buffer& front = queue_.front();
        const std::size_t take = std::min(total - w.pos(), front.size());
        w.bytes(front.view().first(take));
        consume(take);
      }
      out = w.finish();
    }
    buffered_ -= total;
    // Wake a writer that was previously turned away, now that space freed.
    if (writer_waiting_ && on_writable_) {
      writer_waiting_ = false;
      on_writable_();
    }
    return out;
  }

  /// Called when space frees after a kWouldBlock (the "wakeup").
  void on_writable(std::function<void()> cb) { on_writable_ = std::move(cb); }

  /// Called when data arrives into an empty port (wakes the protocol).
  void on_readable(std::function<void()> cb) { on_readable_ = std::move(cb); }

  std::size_t buffered() const { return buffered_; }
  std::size_t limit() const { return limit_; }
  std::uint64_t blocked_count() const { return blocked_; }
  bool empty() const { return buffered_ == 0; }

 private:
  /// Drops the first `n` bytes of the oldest write.
  void consume(std::size_t n) {
    Buffer& front = queue_.front();
    if (n == front.size()) {
      queue_.pop_front();
    } else {
      front = front.slice(n, front.size() - n);
    }
  }

  std::size_t limit_;
  std::size_t buffered_ = 0;
  std::deque<Buffer> queue_;
  std::function<void()> on_writable_;
  std::function<void()> on_readable_;
  std::uint64_t blocked_ = 0;
  bool writer_waiting_ = false;
};

}  // namespace dash::transport

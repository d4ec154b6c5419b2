// Move-only callable with N-byte inline storage.
//
// The event engine schedules millions of small closures — "this + a couple
// of ids" is the common shape. That is past std::function's 16-byte
// small-object buffer (every schedule paid a heap allocation) but inside a
// few dozen bytes. BasicTask<N> stores such callables inline and, being
// move-only, never copies them: moving a task relocates the closure between
// inline buffers with no allocation.
//
// Two instances are in use (DESIGN.md §10):
//   * sim::Task = BasicTask<64> — every engine event. Events on the packet
//     path carry `this` and small ids, never a packet: the component that
//     owns the wait (a link's wire, a router's processing FIFO, the CPU's
//     running slot) holds the packet. 64 B keeps Simulator::Entry small.
//   * CpuScheduler::Task = BasicTask<144> — queued protocol-processing work,
//     which does carry its rms::Message or net::Packet while it waits for
//     the CPU (the largest such closure, ST's emit stage, is 136 B).
//
// Layout: a type-erased Ops vtable pointer plus an aligned N-byte buffer.
// Callables that are too big, over-aligned, or throwing-move fall back to a
// single heap cell (the pointer lives in the buffer); `heap_allocated()`
// reports which path a task took so telemetry can count inline vs. heap
// scheduling.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace dash::sim {

template <std::size_t N>
class BasicTask {
 public:
  /// Inline capacity in bytes.
  static constexpr std::size_t kInlineSize = N;

  BasicTask() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, BasicTask> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  BasicTask(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &inline_ops<D>;
    } else {
      D* p = new D(std::forward<F>(f));
      std::memcpy(storage_, &p, sizeof(p));
      ops_ = &heap_ops<D>;
    }
  }

  BasicTask(BasicTask&& other) noexcept { move_from(other); }

  BasicTask& operator=(BasicTask&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  BasicTask(const BasicTask&) = delete;
  BasicTask& operator=(const BasicTask&) = delete;

  ~BasicTask() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Invokes the stored callable. Precondition: non-empty.
  void operator()() { ops_->invoke(storage_); }

  /// True if this task's callable lives in a heap cell rather than the
  /// inline buffer (telemetry: inline vs. heap scheduling mix).
  bool heap_allocated() const { return ops_ != nullptr && ops_->heap; }

  /// Compile-time answer for a given callable type (used by tests).
  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineSize &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs into dst from src's storage and destroys src's copy.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
    bool heap;
  };

  template <typename D>
  static constexpr Ops inline_ops = {
      [](void* s) { (*std::launder(reinterpret_cast<D*>(s)))(); },
      [](void* dst, void* src) {
        D* from = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* s) { std::launder(reinterpret_cast<D*>(s))->~D(); },
      /*heap=*/false,
  };

  template <typename D>
  static constexpr Ops heap_ops = {
      [](void* s) {
        D* p;
        std::memcpy(&p, s, sizeof(p));
        (*p)();
      },
      [](void* dst, void* src) { std::memcpy(dst, src, sizeof(D*)); },
      [](void* s) {
        D* p;
        std::memcpy(&p, s, sizeof(p));
        delete p;
      },
      /*heap=*/true,
  };

  void move_from(BasicTask& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
};

/// The engine's event closure. `this` + two 64-bit ids + a dash::Buffer
/// (40 bytes) fits exactly; a net::Packet or rms::Message does not.
using Task = BasicTask<64>;

}  // namespace dash::sim

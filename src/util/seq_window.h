// A window of per-sequence-number records.
//
// Reliable senders and reorder buffers keep one record per outstanding
// sequence number, and the live numbers sit in a short span. SeqWindow
// stores that span as a deque of optional slots indexed by `seq − base`:
// a lookup is an index, storage comes in deque blocks rather than a tree
// node per entry, and erasing pops resolved slots off both ends, so the
// window always spans exactly its oldest to its newest live entry.
//
// It grows to whatever span it is given: a caller inserting a sequence
// number read off the wire must bound it first, or a forged number could
// make the window allocate in proportion to the gap.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <utility>

namespace dash {

template <typename T>
class SeqWindow {
 public:
  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Oldest and newest live entries. Precondition: !empty().
  std::uint64_t front_seq() const { return base_; }
  std::uint64_t back_seq() const { return base_ + slots_.size() - 1; }
  T& front() { return *slots_.front(); }
  T& back() { return *slots_.back(); }

  T* find(std::uint64_t seq) {
    return contains(seq) ? &*slots_[seq - base_] : nullptr;
  }
  bool contains(std::uint64_t seq) const {
    return seq >= base_ && seq - base_ < slots_.size() && slots_[seq - base_];
  }

  /// Stores `value` under `seq`, widening the span on either side.
  /// Precondition: `seq` is not present.
  T& insert(std::uint64_t seq, T value) {
    if (empty()) {
      slots_.clear();
      base_ = seq;
    }
    for (; seq < base_; --base_) slots_.emplace_front();
    while (seq - base_ >= slots_.size()) slots_.emplace_back();
    ++live_;
    return slots_[seq - base_].emplace(std::move(value));
  }

  void erase(std::uint64_t seq) {
    if (!contains(seq)) return;
    slots_[seq - base_].reset();
    --live_;
    for (; !slots_.empty() && !slots_.front(); ++base_) slots_.pop_front();
    while (!slots_.empty() && !slots_.back()) slots_.pop_back();
  }

  void clear() {
    slots_.clear();
    live_ = 0;
  }

  /// Visits the live entries in sequence order; `f(seq, T&)` returns false
  /// to stop. `f` may insert or erase: the walk re-indexes by sequence
  /// number at every step.
  template <typename F>
  void for_each(F&& f) {
    for (std::uint64_t seq = base_; !empty() && seq <= back_seq(); ++seq) {
      if (T* entry = find(seq); entry != nullptr && !f(seq, *entry)) return;
    }
  }

 private:
  std::deque<std::optional<T>> slots_;
  std::uint64_t base_ = 0;  ///< sequence number of slots_.front()
  std::size_t live_ = 0;
};

}  // namespace dash

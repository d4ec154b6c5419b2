// A window of per-sequence-number records.
//
// Reliable senders and reorder buffers keep one record per outstanding
// sequence number, and the live numbers sit in a short span. SeqWindow
// stores that span in a ring of optional slots, a power of two long, and
// finds `seq` in slot `seq & (capacity − 1)`: a lookup is a mask, moving
// either end of the span moves no slot, and erasing pops resolved slots
// off both ends, so the window always spans exactly its oldest to its
// newest live entry. The ring allocates only when the span outgrows every
// span before it (it then doubles and re-slots the live entries); clear()
// and shrinking keep it, so a window at a steady span allocates nothing.
//
// It grows to whatever span it is given: a caller inserting a sequence
// number read off the wire must bound it first, or a forged number could
// make the window allocate in proportion to the gap.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace dash {

template <typename T>
class SeqWindow {
 public:
  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Oldest and newest live entries. Precondition: !empty().
  std::uint64_t front_seq() const { return base_; }
  std::uint64_t back_seq() const { return base_ + span_ - 1; }
  T& front() { return *slot(base_); }
  T& back() { return *slot(back_seq()); }

  T* find(std::uint64_t seq) { return contains(seq) ? &*slot(seq) : nullptr; }
  bool contains(std::uint64_t seq) const {
    return seq >= base_ && seq - base_ < span_ && slots_[seq & mask_].has_value();
  }

  /// Stores `value` under `seq`, widening the span on either side.
  /// Precondition: `seq` is not present.
  T& insert(std::uint64_t seq, T value) {
    if (empty()) base_ = seq;  // an empty window spans nothing
    if (seq < base_) {
      reserve(span_ + (base_ - seq));
      span_ += base_ - seq;
      base_ = seq;
    } else if (seq - base_ >= span_) {
      reserve(seq - base_ + 1);
      span_ = seq - base_ + 1;
    }
    ++live_;
    return slot(seq).emplace(std::move(value));
  }

  void erase(std::uint64_t seq) {
    if (!contains(seq)) return;
    slot(seq).reset();
    --live_;
    for (; span_ > 0 && !slot(base_); --span_) ++base_;
    while (span_ > 0 && !slot(back_seq())) --span_;
  }

  void clear() {
    for (std::uint64_t seq = base_; seq - base_ < span_; ++seq) slot(seq).reset();
    span_ = 0;
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
  std::optional<T>& slot(std::uint64_t seq) { return slots_[seq & mask_]; }

  /// Makes room for a span of `span` slots. Slots outside the live span
  /// are always empty, so only the live ones move.
  void reserve(std::uint64_t span) {
    if (span <= slots_.size()) return;
    std::size_t capacity = slots_.empty() ? 8 : slots_.size();
    while (capacity < span) capacity *= 2;
    std::vector<std::optional<T>> grown(capacity);
    for (std::uint64_t seq = base_; seq - base_ < span_; ++seq) {
      if (std::optional<T>& s = slot(seq)) grown[seq & (capacity - 1)] = std::move(s);
    }
    slots_ = std::move(grown);
    mask_ = capacity - 1;
  }

  std::vector<std::optional<T>> slots_;  ///< empty, or a power of two long
  std::uint64_t mask_ = 0;
  std::uint64_t base_ = 0;  ///< sequence number of the oldest slot in the span
  std::uint64_t span_ = 0;
  std::size_t live_ = 0;
};

}  // namespace dash

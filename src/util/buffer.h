// Reference-counted payload buffers for the zero-copy datapath.
//
// The paper's layering (user RMS → ST → network RMS → network) invites one
// payload copy per boundary; §4.1 budgets host overhead as the `A + B·size`
// delay terms, so every copy shows up in the delivered bound. `Buffer` makes
// the boundaries free instead: a payload is an immutable view into shared
// storage, `slice()` is O(1), and a whole fragmented send can live in one
// allocation that every layer hands onward by reference.
//
// Storage is one heap block per buffer: a reference count and the capacity,
// then the bytes. `BufferWriter` serializes straight into such a block, so
// an encoded wire message costs exactly one allocation end to end.
//
// Ownership rules (DESIGN.md §9):
//   * A Buffer never exposes mutable access to bytes another Buffer can see.
//     In-place mutation (`mutate`, `flip_bit`) copies first unless this
//     Buffer is the storage's only owner.
//   * Headroom is the one exception: a slice created with explicit headroom
//     may `prepend()` into the bytes directly before its range. The creator
//     of the slice guarantees nobody else owns that gap (the ST arena
//     reserves a per-packet gap for exactly the network RMS header), so a
//     buffer that is sent more than once must drop its headroom for the
//     later sends (`slice(0, size())`).
//   * The sender's source bytes are copied exactly once — the gather-write
//     into the arena — so a client mutating its source after `send` cannot
//     corrupt data in flight.
//   * A moved-from Buffer is empty: no storage and size() == 0.
#pragma once

#include <cstring>
#include <new>
#include <span>
#include <utility>

#include "util/bytes.h"

namespace dash {

/// An immutable, cheaply copyable view into shared byte storage.
class Buffer {
 public:
  Buffer() = default;

  /// Copies `b` into a fresh block (none when `b` is empty).
  explicit Buffer(BytesView b) {
    if (b.empty()) return;
    block_ = Block::allocate(b.size());
    std::memcpy(block_->bytes(), b.data(), b.size());
    len_ = b.size();
  }

  /// Copies `b`. Implicit so the many call sites that build a Bytes and
  /// assign it to a message keep working; the caller keeps its vector.
  Buffer(const Bytes& b)  // NOLINT(google-explicit-constructor)
      : Buffer(BytesView(b)) {}

  Buffer(const Buffer& o) noexcept
      : block_(o.block_), offset_(o.offset_), len_(o.len_), headroom_(o.headroom_) {
    if (block_ != nullptr) ++block_->refs;
  }
  Buffer(Buffer&& o) noexcept
      : block_(std::exchange(o.block_, nullptr)),
        offset_(std::exchange(o.offset_, 0)),
        len_(std::exchange(o.len_, 0)),
        headroom_(std::exchange(o.headroom_, 0)) {}
  Buffer& operator=(const Buffer& o) noexcept {
    Buffer(o).swap(*this);
    return *this;
  }
  Buffer& operator=(Buffer&& o) noexcept {
    Buffer(std::move(o)).swap(*this);
    return *this;
  }
  ~Buffer() { Block::release(block_); }

  BytesView view() const {
    return block_ != nullptr ? BytesView(block_->bytes() + offset_, len_)
                             : BytesView{};
  }
  operator BytesView() const { return view(); }  // NOLINT

  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  std::byte operator[](std::size_t i) const { return view()[i]; }
  BytesView::iterator begin() const { return view().begin(); }
  BytesView::iterator end() const { return view().end(); }

  /// O(1) sub-range sharing this buffer's storage. `headroom` grants the
  /// slice write access to that many bytes directly before `offset`; pass it
  /// only when those bytes belong to nobody else (see ownership rules).
  Buffer slice(std::size_t offset, std::size_t len,
               std::size_t headroom = 0) const {
    if (block_ == nullptr || offset > len_) return {};
    Buffer out(*this);
    out.offset_ = offset_ + offset;
    out.len_ = std::min(len, len_ - offset);
    out.headroom_ = std::min(headroom, out.offset_);
    return out;
  }

  std::size_t headroom() const { return headroom_; }

  /// Returns a buffer whose contents are `header` followed by this buffer's
  /// contents. When this buffer has `headroom() >= header.size()` the header
  /// is written into the reserved gap and the result shares storage (zero
  /// copy of the payload); otherwise the result is a fresh block.
  Buffer prepend(BytesView header) const {
    const std::size_t n = header.size();
    if (block_ != nullptr && headroom_ >= n) {
      if (n != 0) std::memcpy(block_->bytes() + (offset_ - n), header.data(), n);
      Buffer out(*this);
      out.offset_ = offset_ - n;
      out.len_ = len_ + n;
      out.headroom_ = headroom_ - n;
      return out;
    }
    Buffer out;
    if (n + len_ == 0) return out;
    out.block_ = Block::allocate(n + len_);
    if (n != 0) std::memcpy(out.block_->bytes(), header.data(), n);
    if (len_ != 0) std::memcpy(out.block_->bytes() + n, view().data(), len_);
    out.len_ = n + len_;
    return out;
  }

  /// Writable access to this buffer's range. Copies the range into a fresh
  /// block first unless this Buffer is the storage's only owner, so other
  /// buffers sharing the old storage are never affected.
  std::span<std::byte> mutate() {
    if (len_ == 0) return {};
    if (block_->refs != 1) *this = Buffer(view());
    return {block_->bytes() + offset_, len_};
  }

  /// XORs `mask` into byte `pos` (fault injection) with copy-on-write.
  void flip_bit(std::size_t pos, std::uint8_t mask) {
    if (pos >= len_) return;
    mutate()[pos] ^= static_cast<std::byte>(mask);
  }

  /// Materializes an owned copy of the contents.
  Bytes to_bytes() const {
    return Bytes(view().begin(), view().end());
  }

  /// True when both buffers are views into the same storage block — used
  /// by tests to assert the datapath really is zero-copy.
  bool shares_storage(const Buffer& other) const {
    return block_ != nullptr && block_ == other.block_;
  }

  /// Concatenates `parts` into one fresh block (the single copy a
  /// fragmented delivery pays, at final reassembly).
  static Buffer concat(std::span<const Buffer> parts) {
    std::size_t total = 0;
    for (const Buffer& p : parts) total += p.size();
    Buffer out;
    if (total == 0) return out;
    out.block_ = Block::allocate(total);
    for (const Buffer& p : parts) {
      if (p.empty()) continue;
      std::memcpy(out.block_->bytes() + out.len_, p.view().data(), p.size());
      out.len_ += p.size();
    }
    return out;
  }

  friend bool operator==(const Buffer& a, const Buffer& b) {
    return a == b.view();
  }
  friend bool operator==(const Buffer& a, BytesView b) {
    const BytesView va = a.view();
    return va.size() == b.size() &&
           (va.empty() || std::memcmp(va.data(), b.data(), va.size()) == 0);
  }
  // Exact-match overload: without it, Buffer == Bytes is ambiguous (Bytes
  // converts to both Buffer and BytesView equally well).
  friend bool operator==(const Buffer& a, const Bytes& b) {
    return a == BytesView(b);
  }

 private:
  friend class BufferWriter;

  /// Header of one storage allocation; `capacity` bytes follow it. The
  /// count is not atomic: the simulator and the rt driver are one thread.
  struct Block {
    std::size_t refs;
    std::size_t capacity;

    std::byte* bytes() { return reinterpret_cast<std::byte*>(this + 1); }

    static Block* allocate(std::size_t capacity) {
      void* mem = ::operator new(sizeof(Block) + capacity);
      return ::new (mem) Block{1, capacity};
    }
    static void release(Block* b) {
      if (b != nullptr && --b->refs == 0) ::operator delete(b);
    }
  };

  void swap(Buffer& o) noexcept {
    std::swap(block_, o.block_);
    std::swap(offset_, o.offset_);
    std::swap(len_, o.len_);
    std::swap(headroom_, o.headroom_);
  }

  Block* block_ = nullptr;
  std::size_t offset_ = 0;
  std::size_t len_ = 0;
  std::size_t headroom_ = 0;
};

/// Serializer that writes straight into one Buffer block (typically a
/// single wire message, or an arena holding several packet regions) and
/// hands it over with no further allocation. Mirrors `Writer`'s field API,
/// plus the pieces the send paths need: a leading headroom gap for the
/// network RMS header, `skip()` to reserve space, `patch_*` to fill fields
/// whose values are known only after the body is written (the MAC precedes
/// the body on the wire), and `span()` for in-place encryption of a
/// just-written region. Offsets (`pos`, `patch_*`, `span`) count from the
/// start of the block, headroom included, and survive growth.
class BufferWriter {
 public:
  BufferWriter() = default;

  /// Allocates `headroom + body_bytes` up front and skips the headroom:
  /// `finish()` returns the body as a slice whose headroom() is `headroom`,
  /// so the network RMS writes its header in place. Writing past the
  /// reserve grows the block (one more allocation and a copy).
  explicit BufferWriter(std::size_t body_bytes, std::size_t headroom = 0)
      : headroom_(headroom) {
    const std::size_t capacity = headroom + body_bytes;
    if (capacity != 0) block_ = Buffer::Block::allocate(capacity);
    skip(headroom);
  }

  BufferWriter(BufferWriter&& o) noexcept
      : block_(std::exchange(o.block_, nullptr)),
        size_(std::exchange(o.size_, 0)),
        headroom_(std::exchange(o.headroom_, 0)) {}
  BufferWriter& operator=(BufferWriter&& o) noexcept {
    if (this != &o) {
      Buffer::Block::release(block_);
      block_ = std::exchange(o.block_, nullptr);
      size_ = std::exchange(o.size_, 0);
      headroom_ = std::exchange(o.headroom_, 0);
    }
    return *this;
  }
  BufferWriter(const BufferWriter&) = delete;
  BufferWriter& operator=(const BufferWriter&) = delete;
  ~BufferWriter() { Buffer::Block::release(block_); }

  void u8(std::uint8_t v) { *grow(1) = static_cast<std::byte>(v); }
  void u16(std::uint16_t v) { put(v, 2); }
  void u32(std::uint32_t v) { put(v, 4); }
  void u64(std::uint64_t v) { put(v, 8); }
  void i64(std::int64_t v) { put(static_cast<std::uint64_t>(v), 8); }
  void bytes(BytesView v) {
    if (!v.empty()) std::memcpy(grow(v.size()), v.data(), v.size());
  }

  /// Length-prefixed (u32) byte string.
  void sized_bytes(BytesView v) {
    u32(static_cast<std::uint32_t>(v.size()));
    bytes(v);
  }

  /// Current write position = offset of the next byte written.
  std::size_t pos() const { return size_; }

  /// Reserves `n` zero bytes (headroom gaps, placeholder fields).
  void skip(std::size_t n) {
    if (n != 0) std::memset(grow(n), 0, n);
  }

  void patch_u8(std::size_t at, std::uint8_t v) {
    block_->bytes()[at] = static_cast<std::byte>(v);
  }
  void patch_u32(std::size_t at, std::uint32_t v) { patch(at, v, 4); }
  void patch_u64(std::size_t at, std::uint64_t v) { patch(at, v, 8); }

  /// Mutable view of an already-written region; invalidated by the next
  /// write (growth may reallocate).
  std::span<std::byte> span(std::size_t at, std::size_t n) {
    return {block_->bytes() + at, n};
  }

  /// Hands the block over as a Buffer of everything written after the
  /// headroom; the writer is empty after.
  Buffer finish() {
    Buffer out;
    out.block_ = std::exchange(block_, nullptr);
    out.offset_ = headroom_;
    out.len_ = size_ - headroom_;
    out.headroom_ = headroom_;
    size_ = 0;
    headroom_ = 0;
    return out;
  }

 private:
  /// Makes room for `n` more bytes and returns where they go.
  std::byte* grow(std::size_t n) {
    const std::size_t need = size_ + n;
    if (block_ == nullptr || need > block_->capacity) {
      const std::size_t cap =
          std::max(need, block_ != nullptr ? 2 * block_->capacity : std::size_t{32});
      Buffer::Block* bigger = Buffer::Block::allocate(cap);
      if (size_ != 0) std::memcpy(bigger->bytes(), block_->bytes(), size_);
      Buffer::Block::release(block_);
      block_ = bigger;
    }
    std::byte* at = block_->bytes() + size_;
    size_ = need;
    return at;
  }
  void put(std::uint64_t v, int width) {
    std::byte* at = grow(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i) at[i] = static_cast<std::byte>(v >> (8 * i));
  }
  void patch(std::size_t at, std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      block_->bytes()[at + static_cast<std::size_t>(i)] =
          static_cast<std::byte>(v >> (8 * i));
    }
  }

  Buffer::Block* block_ = nullptr;
  std::size_t size_ = 0;      ///< bytes written, headroom included
  std::size_t headroom_ = 0;  ///< leading gap finish() leaves before the body
};

}  // namespace dash

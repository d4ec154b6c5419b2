// A drop-in replacement for src/util/alloc_count.cpp that also records
// where every heap allocation comes from. scripts/alloc_sites.sh copies the
// tree, swaps this file in for the counting allocator, builds perfbench and
// resolves the recorded call stacks; it is never built in the tree itself.
//
// Each operator-new call is counted as in the shipped library, and its call
// stack (return addresses, via glibc's backtrace()) is added to a fixed
// open-addressing table of distinct stacks, so recording allocates nothing.
// At exit the table is written to ./alloc_sites.raw, one stack per line:
//
//   <count> <offset> <offset> ...
//
// where an offset is a return address minus one, relative to the start of
// the executable, or "-" for a frame outside it (libstdc++, libc). The
// first line holds the totals and the executable's load address:
// "total <allocations> <allocations in no slot> <hex address>".
#include "util/alloc_count.h"

#include <execinfo.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

extern "C" char __executable_start;  // NOLINT: provided by the linker
extern "C" char etext;               // NOLINT: end of the executable's text

namespace {

constexpr int kDepth = 32;
constexpr std::size_t kSlots = std::size_t{1} << 16;

struct Site {
  std::uint64_t hash;
  std::uint64_t count;
  int depth;
  void* frames[kDepth];
};

Site g_sites[kSlots];
std::uint64_t g_dropped = 0;  ///< allocations whose stack found the table full
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};
std::atomic_flag g_lock = ATOMIC_FLAG_INIT;
thread_local bool t_recording = false;  // backtrace() may allocate itself

void record() {
  if (t_recording) return;
  t_recording = true;
  // The innermost frames are this file's own; the resolver skips them.
  void* stack[kDepth];
  const int depth = backtrace(stack, kDepth);
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (int i = 0; i < depth; ++i) {
    hash = (hash ^ reinterpret_cast<std::uintptr_t>(stack[i])) * 0x100000001b3ull;
  }
  hash |= 1;  // 0 marks an empty slot
  while (g_lock.test_and_set(std::memory_order_acquire)) {
  }
  std::size_t i = hash & (kSlots - 1);
  for (std::size_t probes = 0;; ++probes, i = (i + 1) & (kSlots - 1)) {
    Site& s = g_sites[i];
    if (probes == kSlots) {
      ++g_dropped;
      break;
    }
    if (s.hash == 0) {
      s.hash = hash;
      s.depth = depth;
      std::memcpy(s.frames, stack, sizeof(void*) * static_cast<std::size_t>(depth));
    }
    if (s.hash == hash && s.depth == depth &&
        std::memcmp(s.frames, stack, sizeof(void*) * static_cast<std::size_t>(depth)) == 0) {
      ++s.count;
      break;
    }
  }
  g_lock.clear(std::memory_order_release);
  t_recording = false;
}

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  record();
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  record();
  const std::size_t padded = (n + align - 1) / align * align;
  void* p = std::aligned_alloc(align, padded == 0 ? align : padded);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

__attribute__((destructor)) void dump_sites() {
  t_recording = true;  // stdio below must not record into the table
  std::FILE* f = std::fopen("alloc_sites.raw", "w");
  if (f == nullptr) return;
  const auto lo = reinterpret_cast<std::uintptr_t>(&__executable_start);
  const auto hi = reinterpret_cast<std::uintptr_t>(&etext);
  std::fprintf(f, "total %llu %llu %llx\n",
               static_cast<unsigned long long>(g_allocations.load()),
               static_cast<unsigned long long>(g_dropped),
               static_cast<unsigned long long>(lo));
  for (const Site& s : g_sites) {
    if (s.hash == 0) continue;
    std::fprintf(f, "%llu", static_cast<unsigned long long>(s.count));
    for (int i = 0; i < s.depth; ++i) {
      const auto a = reinterpret_cast<std::uintptr_t>(s.frames[i]);
      if (a > lo && a <= hi) {
        std::fprintf(f, " %llx", static_cast<unsigned long long>(a - 1 - lo));
      } else {
        std::fputs(" -", f);
      }
    }
    std::fputc('\n', f);
  }
  std::fclose(f);
}

}  // namespace

namespace dash::alloc_count {

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }
std::uint64_t bytes() { return g_bytes.load(std::memory_order_relaxed); }
bool instrumented() { return true; }

}  // namespace dash::alloc_count

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  record();
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  record();
  return std::malloc(n == 0 ? 1 : n);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

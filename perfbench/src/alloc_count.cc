// Replaced global allocation functions that count per thread.
//
// Every form of operator new funnels into CountedAlloc (malloc or
// aligned_alloc underneath) and every operator delete into free, so the
// pairs stay consistent whichever form the standard library picks.
#include <cstddef>
#include <cstdlib>
#include <new>

#include "alloc.h"

namespace perfbench {
namespace {

thread_local AllocCounts t_counts;

void* CountedAlloc(std::size_t size, std::size_t align) {
  if (size == 0) size = 1;
  ++t_counts.allocs;
  t_counts.bytes += size;
  if (align <= alignof(std::max_align_t)) return std::malloc(size);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded);
}

void* CountedAllocOrThrow(std::size_t size, std::size_t align) {
  void* p = CountedAlloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

bool AllocCountingAvailable() { return true; }

AllocCounts ThreadAllocCounts() { return t_counts; }

}  // namespace perfbench

using perfbench::CountedAlloc;
using perfbench::CountedAllocOrThrow;

constexpr std::size_t kDefaultAlign = alignof(std::max_align_t);

void* operator new(std::size_t n) {
  return CountedAllocOrThrow(n, kDefaultAlign);
}
void* operator new[](std::size_t n) {
  return CountedAllocOrThrow(n, kDefaultAlign);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, kDefaultAlign);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, kDefaultAlign);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAllocOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAllocOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

//===-- telemetry/MemoryAccounting.cpp - Per-span heap accounting ---------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The global operator new/delete replacements live here, in the same
// object file as push()/pop(), so linking any telemetry user pulls them
// in (a static-archive member is only extracted when one of its symbols
// is referenced — the Span implementation references push/pop, and the
// allocator replacements ride along).
//
//===----------------------------------------------------------------------===//

#include "telemetry/MemoryAccounting.h"

#include <cstdlib>
#include <new>

// The build probes for malloc_usable_size (and honors the
// DMM_ENABLE_MEMACCT option) and defines DMM_MEMACCT_PLATFORM to 0/1;
// see src/telemetry/CMakeLists.txt. Builds that bypass CMake fall back
// to a glibc test. Either way a disabled build compiles this file to
// plain push/pop bookkeeping with no allocator replacement, and
// available() reports the gate so consumers (the stats document's
// "memory_accounting" field, the telemetry.memacct.enabled counter)
// can distinguish "zero bytes" from "not measured".
#if defined(DMM_MEMACCT_PLATFORM)
#define DMM_MEMACCT_ENABLED DMM_MEMACCT_PLATFORM
#elif defined(__GLIBC__)
#define DMM_MEMACCT_ENABLED 1
#else
#define DMM_MEMACCT_ENABLED 0
#endif

#if DMM_MEMACCT_ENABLED
#include <malloc.h>
#endif

namespace {

/// The frame stack. Plain zero-initialized storage: the allocation
/// hooks may run before any constructor and after any destructor, so
/// this must need neither.
struct FrameStack {
  int Depth;
  int64_t Cur[dmm::memacct::kMaxDepth];
  int64_t Peak[dmm::memacct::kMaxDepth];
};

FrameStack Stack;

#if DMM_MEMACCT_ENABLED

inline void charge(int64_t Bytes) {
  for (int I = 0; I != Stack.Depth; ++I) {
    Stack.Cur[I] += Bytes;
    if (Stack.Cur[I] > Stack.Peak[I])
      Stack.Peak[I] = Stack.Cur[I];
  }
}

inline void onAlloc(void *P) {
  if (Stack.Depth && P)
    charge(static_cast<int64_t>(malloc_usable_size(P)));
}

inline void onFree(void *P) {
  if (Stack.Depth && P)
    charge(-static_cast<int64_t>(malloc_usable_size(P)));
}

#endif // DMM_MEMACCT_ENABLED

} // namespace

bool dmm::memacct::available() { return DMM_MEMACCT_ENABLED != 0; }

bool dmm::memacct::push() {
  if (Stack.Depth >= kMaxDepth)
    return false;
  Stack.Cur[Stack.Depth] = 0;
  Stack.Peak[Stack.Depth] = 0;
  ++Stack.Depth;
  return true;
}

dmm::memacct::Frame dmm::memacct::pop() {
  Frame F;
  if (Stack.Depth == 0)
    return F;
  --Stack.Depth;
  F.NetBytes = Stack.Cur[Stack.Depth];
  F.PeakBytes = Stack.Peak[Stack.Depth];
  return F;
}

#if DMM_MEMACCT_ENABLED

//===----------------------------------------------------------------------===//
// Global allocator replacements
//===----------------------------------------------------------------------===//
//
// Every variant funnels through allocOrThrow/allocAligned + free so the
// accounting sees one usable-size per pointer on both sides. Sized
// operator delete intentionally ignores the size argument and measures
// the pointer instead: usable size is what malloc actually reserved,
// and it keeps alloc/free symmetric.

namespace {

void *allocOrThrow(std::size_t N) {
  void *P = std::malloc(N ? N : 1);
  if (!P)
    throw std::bad_alloc();
  onAlloc(P);
  return P;
}

void *allocNoThrow(std::size_t N) noexcept {
  void *P = std::malloc(N ? N : 1);
  onAlloc(P);
  return P;
}

void *allocAligned(std::size_t N, std::size_t Align) noexcept {
  if (Align < sizeof(void *))
    Align = sizeof(void *);
  void *P = nullptr;
  if (posix_memalign(&P, Align, N ? N : 1) != 0)
    return nullptr;
  onAlloc(P);
  return P;
}

void accountedFree(void *P) noexcept {
  if (!P)
    return;
  onFree(P);
  std::free(P);
}

} // namespace

void *operator new(std::size_t N) { return allocOrThrow(N); }
void *operator new[](std::size_t N) { return allocOrThrow(N); }
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  return allocNoThrow(N);
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  return allocNoThrow(N);
}
void *operator new(std::size_t N, std::align_val_t A) {
  void *P = allocAligned(N, static_cast<std::size_t>(A));
  if (!P)
    throw std::bad_alloc();
  return P;
}
void *operator new[](std::size_t N, std::align_val_t A) {
  void *P = allocAligned(N, static_cast<std::size_t>(A));
  if (!P)
    throw std::bad_alloc();
  return P;
}
void *operator new(std::size_t N, std::align_val_t A,
                   const std::nothrow_t &) noexcept {
  return allocAligned(N, static_cast<std::size_t>(A));
}
void *operator new[](std::size_t N, std::align_val_t A,
                     const std::nothrow_t &) noexcept {
  return allocAligned(N, static_cast<std::size_t>(A));
}

void operator delete(void *P) noexcept { accountedFree(P); }
void operator delete[](void *P) noexcept { accountedFree(P); }
void operator delete(void *P, std::size_t) noexcept { accountedFree(P); }
void operator delete[](void *P, std::size_t) noexcept { accountedFree(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  accountedFree(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  accountedFree(P);
}
void operator delete(void *P, std::align_val_t) noexcept { accountedFree(P); }
void operator delete[](void *P, std::align_val_t) noexcept {
  accountedFree(P);
}
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  accountedFree(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  accountedFree(P);
}
void operator delete(void *P, std::align_val_t,
                     const std::nothrow_t &) noexcept {
  accountedFree(P);
}
void operator delete[](void *P, std::align_val_t,
                       const std::nothrow_t &) noexcept {
  accountedFree(P);
}

#endif // DMM_MEMACCT_ENABLED

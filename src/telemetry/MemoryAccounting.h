//===-- telemetry/MemoryAccounting.h - Per-span heap accounting -*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counting-allocator layer for per-span memory accounting: the
/// implementation file replaces the global operator new/delete with
/// versions that, when at least one accounting frame is open, charge
/// each allocation's usable size to every open frame. A Span
/// (telemetry/Telemetry.h) pushes a frame while it is open and reads
/// back net and peak heap bytes when it closes.
///
/// The process runs on one thread, so there is one frame stack. Frees
/// are credited the same way as allocations, so a frame's net can go
/// negative when it frees memory allocated before it opened — that is
/// real information (the span released memory), not an error. Frames
/// nest up to a fixed depth; spans deeper than that report zero memory.
///
/// The disabled-path cost (no frame open) is one integer test per
/// allocation. On platforms without
/// malloc_usable_size (non-glibc) — or when configured with
/// -DDMM_ENABLE_MEMACCT=OFF — the layer compiles to no-ops and every
/// span reports zero bytes. Check available(); it is also surfaced as
/// the "memory_accounting" stats field and the
/// "telemetry.memacct.enabled" counter (a 0/1 gauge, not a sum).
///
//===----------------------------------------------------------------------===//

#ifndef DMM_TELEMETRY_MEMORYACCOUNTING_H
#define DMM_TELEMETRY_MEMORYACCOUNTING_H

#include <cstdint>

namespace dmm {
namespace memacct {

/// Net/peak heap movement observed by one accounting frame.
struct Frame {
  int64_t NetBytes = 0;
  int64_t PeakBytes = 0;
};

/// Maximum nesting of accounting frames.
inline constexpr int kMaxDepth = 64;

/// Opens an accounting frame. Returns false (and opens nothing) when
/// the depth limit is reached; the matching pop() must then be skipped.
bool push();

/// Closes the innermost frame and returns its totals.
Frame pop();

/// True when the platform supports usable-size accounting (glibc).
bool available();

} // namespace memacct
} // namespace dmm

#endif // DMM_TELEMETRY_MEMORYACCOUNTING_H

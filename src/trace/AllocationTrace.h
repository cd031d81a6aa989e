//===-- trace/AllocationTrace.h - Object allocation trace -------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic-trace substrate. The paper obtained its dynamic numbers
/// "by a combination of code instrumentation and analysis of a dynamic
/// trace of the execution" (§4, ref [14]); our interpreter records an
/// equivalent trace of object allocations and deallocations, with logical
/// timestamps, which trace/DynamicMetrics.h analyzes.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_TRACE_ALLOCATIONTRACE_H
#define DMM_TRACE_ALLOCATIONTRACE_H

#include "ast/Decl.h"

#include <cstdint>
#include <vector>

namespace dmm {

/// One allocation or deallocation of a (possibly array of) complete
/// object(s).
struct TraceEvent {
  enum class EK { Alloc, Free };
  EK Kind;
  uint64_t ObjectID;
  const ClassDecl *Class;
  uint64_t Count; ///< Number of complete objects (array-new extent).
  uint64_t Bytes; ///< Total bytes = Count * sizeof(complete object).
  uint64_t Time;  ///< Logical timestamp (event order).
};

/// An append-only execution trace. Records are keyed by the engine's
/// ObjectID (dense, handed out from 1), so the live index is a flat
/// table.
class AllocationTrace {
public:
  /// Records the allocation of \p ObjectID.
  void recordAlloc(uint64_t ObjectID, const ClassDecl *CD, uint64_t Count,
                   uint64_t Bytes) {
    if (ObjectID >= LiveIndex.size())
      LiveIndex.resize(ObjectID + 1, 0);
    Events.push_back(
        {TraceEvent::EK::Alloc, ObjectID, CD, Count, Bytes, NextTime++});
    NumLive += LiveIndex[ObjectID] == 0;
    LiveIndex[ObjectID] = static_cast<uint32_t>(Events.size());
  }

  /// Records the deallocation of \p ObjectID. Double frees and unknown
  /// IDs are ignored (the interpreter reports them separately).
  void recordFree(uint64_t ObjectID) {
    if (ObjectID >= LiveIndex.size() || !LiveIndex[ObjectID])
      return;
    const TraceEvent &Alloc = Events[LiveIndex[ObjectID] - 1];
    Events.push_back({TraceEvent::EK::Free, ObjectID, Alloc.Class,
                      Alloc.Count, Alloc.Bytes, NextTime++});
    LiveIndex[ObjectID] = 0;
    --NumLive;
  }

  const std::vector<TraceEvent> &events() const { return Events; }

  /// Number of objects never freed (alive at end of execution).
  size_t numLeaked() const { return NumLive; }

private:
  std::vector<TraceEvent> Events;
  /// By ObjectID: 1 + the index of its Alloc event while it is live,
  /// else 0.
  std::vector<uint32_t> LiveIndex;
  size_t NumLive = 0;
  uint64_t NextTime = 0;
};

} // namespace dmm

#endif // DMM_TRACE_ALLOCATIONTRACE_H

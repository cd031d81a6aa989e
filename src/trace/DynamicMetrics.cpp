//===-- trace/DynamicMetrics.cpp ------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "trace/DynamicMetrics.h"

#include <algorithm>
#include <unordered_map>

using namespace dmm;

DynamicMetrics dmm::computeDynamicMetrics(const AllocationTrace &Trace,
                                          const LayoutEngine &Layout,
                                          const FieldSet &Dead) {
  DynamicMetrics M;
  uint64_t LiveBytes = 0;
  uint64_t LiveShrunkBytes = 0;

  // One filtered-layout query per class: each query checks the whole
  // set against the engine's copy of it.
  std::unordered_map<const ClassDecl *, const ClassLayout *> Filtered;
  for (const TraceEvent &E : Trace.events()) {
    const ClassLayout *&L = Filtered[E.Class];
    if (!L)
      L = &Layout.layout(E.Class, &Dead);
    uint64_t Shrunk = E.Count * L->CompleteSize;

    if (E.Kind == TraceEvent::EK::Alloc) {
      M.ObjectSpace += E.Bytes;
      M.DeadMemberSpace += E.Count * L->DeadBytes;
      M.NumObjects += E.Count;
      LiveBytes += E.Bytes;
      LiveShrunkBytes += Shrunk;
      M.HighWaterMark = std::max(M.HighWaterMark, LiveBytes);
      M.HighWaterMarkNoDead =
          std::max(M.HighWaterMarkNoDead, LiveShrunkBytes);
      continue;
    }
    LiveBytes -= std::min(LiveBytes, E.Bytes);
    LiveShrunkBytes -= std::min(LiveShrunkBytes, Shrunk);
  }
  return M;
}

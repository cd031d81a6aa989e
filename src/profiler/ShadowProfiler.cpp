//===-- profiler/ShadowProfiler.cpp - Per-byte shadow memory --------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "profiler/ShadowProfiler.h"

#include "ast/Decl.h"
#include "ast/Type.h"
#include "support/Casting.h"
#include "support/SourceManager.h"
#include "telemetry/Stats.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>

using namespace dmm;

namespace {

/// Snapshot buffer cap: when a new snapshot would exceed this, every
/// other snapshot is dropped and the stride doubles (massif's scheme).
constexpr size_t kMaxSnapshots = 256;

} // namespace

ShadowProfiler::ShadowProfiler(const ClassHierarchy &CH, FieldSet DeadSet)
    : Layout(CH), Dead(std::move(DeadSet)) {}

ShadowProfiler::~ShadowProfiler() = default;

//===----------------------------------------------------------------------===//
// Layout expansion
//===----------------------------------------------------------------------===//

void ShadowProfiler::expandClass(const ClassDecl *CD, uint64_t Base,
                                 bool DeadCtx, ClassInfo &CI) {
  for (const FieldSlot &S : Layout.layout(CD).AllFields) {
    const bool FieldDead = DeadCtx || Dead.count(S.Field) != 0;
    const Type *Ty = S.Field->type();
    if (const ClassDecl *Member = Ty->asClassDecl()) {
      // A by-value class member embeds the member class' complete
      // object; its leaves are the nested class' own leaves.
      expandClass(Member, Base + S.Offset, FieldDead, CI);
      continue;
    }
    if (const auto *AT = dyn_cast<ArrayType>(Ty)) {
      if (const ClassDecl *Elem = AT->element()->asClassDecl()) {
        const uint64_t Stride = Layout.sizeOf(AT->element());
        for (uint64_t I = 0; I < AT->size(); ++I)
          expandClass(Elem, Base + S.Offset + I * Stride, FieldDead, CI);
        continue;
      }
      // Scalar arrays fall through: one leaf covering the whole array
      // (element accesses attribute to the array member as a unit).
    }
    // Leaf: scalar member or scalar array, one per AllFields slot.
    LeafInfo Leaf;
    Leaf.Field = S.Field;
    Leaf.Offset = Base + S.Offset;
    Leaf.Bytes = S.Size;
    Leaf.StaticDead = FieldDead;
    CI.Leaves.push_back(Leaf);
  }
}

ShadowProfiler::ClassInfo &ShadowProfiler::classInfo(const ClassDecl *CD) {
  const unsigned ID = CD->declID();
  if (ID >= Classes.size())
    Classes.resize(ID + 1);
  if (Classes[ID])
    return *Classes[ID];
  auto CI = std::make_unique<ClassInfo>();
  CI->CD = CD;
  CI->Size = Layout.layout(CD).CompleteSize;
  CI->DeadPer = Layout.deadBytes(CD, Dead);
  CI->ShrunkPer = Layout.sizeWithoutDead(CD, Dead);
  expandClass(CD, 0, /*DeadCtx=*/false, *CI);

  // Give each leaf field a profiler-wide ordinal, then index the leaves
  // by ordinal: one flat table per class, the same-field leaves chained
  // in layout order.
  std::vector<uint32_t> Ords;
  uint32_t Lo = UINT32_MAX, Hi = 0;
  for (const LeafInfo &Leaf : CI->Leaves) {
    const unsigned FID = Leaf.Field->declID();
    if (FID >= FieldOrd.size())
      FieldOrd.resize(FID + 1, 0);
    if (!FieldOrd[FID])
      FieldOrd[FID] = ++NumFieldOrds;
    const uint32_t Ord = FieldOrd[FID] - 1;
    Ords.push_back(Ord);
    Lo = std::min(Lo, Ord);
    Hi = std::max(Hi, Ord);
  }
  if (!Ords.empty()) {
    CI->OrdBase = Lo;
    CI->FirstLeaf.assign(Hi - Lo + 1, 0);
    for (size_t L = CI->Leaves.size(); L-- > 0;) {
      uint32_t &Head = CI->FirstLeaf[Ords[L] - Lo];
      CI->Leaves[L].NextSame = Head;
      Head = static_cast<uint32_t>(L + 1);
    }
    for (size_t L = 0; L != CI->Leaves.size(); ++L) {
      LeafInfo &Leaf = CI->Leaves[L];
      const uint32_t First = CI->FirstLeaf[Ords[L] - Lo] - 1;
      if (First == L) {
        Leaf.Cell = static_cast<uint32_t>(CI->CellFields.size());
        CI->CellFields.push_back(Leaf.Field);
      } else {
        Leaf.Cell = CI->Leaves[First].Cell;
      }
    }
  }
  Classes[ID] = std::move(CI);
  return *Classes[ID];
}

uint32_t ShadowProfiler::siteGroup(ClassInfo &CI, SourceLocation Site) {
  const uint64_t Key =
      (static_cast<uint64_t>(Site.fileID()) << 32) | Site.offset();
  auto It = std::lower_bound(
      CI.Sites.begin(), CI.Sites.end(), Key,
      [](const std::pair<uint64_t, uint32_t> &E, uint64_t K) {
        return E.first < K;
      });
  if (It != CI.Sites.end() && It->first == Key)
    return It->second;
  const auto Index = static_cast<uint32_t>(SiteGroups.size());
  SiteGroup &G = SiteGroups.emplace_back();
  G.Site = Site;
  G.CI = &CI;
  G.Cells.resize(CI.CellFields.size());
  CI.Sites.insert(It, {Key, Index});
  return Index;
}

ShadowProfiler::AllocRecord *ShadowProfiler::liveRecord(uint64_t ObjectID) {
  if (ObjectID >= RecordOf.size() || !RecordOf[ObjectID])
    return nullptr;
  AllocRecord &R = Records[RecordOf[ObjectID] - 1];
  return R.Live ? &R : nullptr;
}

ShadowProfiler::AllocRecord *ShadowProfiler::liveGroup(uint64_t FirstID) {
  AllocRecord *R = liveRecord(FirstID);
  return R && R->FirstID == FirstID ? R : nullptr;
}

//===----------------------------------------------------------------------===//
// Allocation / deallocation events
//===----------------------------------------------------------------------===//

void ShadowProfiler::registerObjects(const ClassDecl *CD, uint64_t Count,
                                     uint64_t FirstID, SourceLocation Site) {
  if (Finalized || Count == 0)
    return;
  ClassInfo &CI = classInfo(CD);
  const uint32_t Group = siteGroup(CI, Site);
  const auto Index = static_cast<uint32_t>(Records.size());
  AllocRecord &R = Records.emplace_back();
  R.CI = &CI;
  R.FirstID = FirstID;
  R.Count = Count;
  R.Group = Group;
  R.Live = true;
  R.Bytes.assign(Count * CI.Size, SB_Allocated);
  if (RecordOf.size() < FirstID + Count)
    RecordOf.resize(FirstID + Count, 0);
  std::fill_n(RecordOf.begin() + static_cast<std::ptrdiff_t>(FirstID), Count,
              Index + 1);
}

void ShadowProfiler::recordAllocEvent(uint64_t FirstID) {
  if (Finalized)
    return;
  AllocRecord *RP = liveGroup(FirstID);
  if (!RP)
    return;
  AllocRecord &R = *RP;
  if (R.Counted)
    return;
  R.Counted = true;

  // Mirror computeDynamicMetrics' Alloc case exactly: the trace and the
  // shadow profiler see the same events in the same order, so the
  // running aggregates match the replayed ones byte-for-byte.
  const uint64_t Bytes = R.Count * R.CI->Size;
  DynamicMetrics &M = Sum.Metrics;
  M.ObjectSpace += Bytes;
  M.DeadMemberSpace += R.Count * R.CI->DeadPer;
  M.NumObjects += R.Count;
  LiveBytes += Bytes;
  LiveShrunkBytes += R.Count * R.CI->ShrunkPer;
  LiveObjects += R.Count;
  ++Sum.AllocEvents;
  if (LiveBytes > M.HighWaterMark) {
    M.HighWaterMark = LiveBytes;
    Sum.PeakAllocEvent = Sum.AllocEvents;
  }
  M.HighWaterMarkNoDead = std::max(M.HighWaterMarkNoDead, LiveShrunkBytes);

  if (Sum.AllocEvents % Sum.SnapshotStride == 0)
    takeSnapshot();
}

void ShadowProfiler::takeSnapshot() {
  if (Sum.Snapshots.size() >= kMaxSnapshots) {
    // Massif-style compaction: double the stride, keep the snapshots
    // that fall on the new schedule. Deterministic for a given event
    // sequence.
    Sum.SnapshotStride *= 2;
    const uint64_t Stride = Sum.SnapshotStride;
    Sum.Snapshots.erase(
        std::remove_if(Sum.Snapshots.begin(), Sum.Snapshots.end(),
                       [Stride](const ProfileSnapshot &S) {
                         return S.AllocEvent % Stride != 0;
                       }),
        Sum.Snapshots.end());
    if (Sum.AllocEvents % Stride != 0)
      return; // This event is no longer on the schedule.
  }
  Sum.Snapshots.push_back(
      {Sum.AllocEvents, LiveBytes, LiveShrunkBytes, LiveObjects});
  // An instant span puts the snapshot on the Chrome trace timeline and
  // into the stats span tree. All args are deterministic.
  Span S("profiler.snapshot");
  S.arg("event", Sum.AllocEvents);
  S.arg("live_bytes", LiveBytes);
  S.arg("live_bytes_no_dead", LiveShrunkBytes);
  S.arg("live_objects", LiveObjects);
}

void ShadowProfiler::recordFree(uint64_t FirstID) {
  if (Finalized)
    return;
  AllocRecord *R = liveGroup(FirstID);
  if (!R || !R->Counted)
    return; // Unknown, already freed, or its alloc event was never
            // recorded; neither is the free (mirrors the trace).

  const uint64_t Bytes = R->Count * R->CI->Size;
  const uint64_t Shrunk = R->Count * R->CI->ShrunkPer;
  LiveBytes -= std::min(LiveBytes, Bytes);
  LiveShrunkBytes -= std::min(LiveShrunkBytes, Shrunk);
  LiveObjects -= std::min(LiveObjects, R->Count);
  ++Sum.FreeEvents;

  foldGroup(*R);
}

//===----------------------------------------------------------------------===//
// Member access marking
//===----------------------------------------------------------------------===//

void ShadowProfiler::mark(uint64_t ObjectID, const FieldDecl *F,
                          uint8_t Bits) {
  if (Finalized || !F)
    return;
  AllocRecord *R = liveRecord(ObjectID);
  if (!R)
    return;
  const ClassInfo &CI = *R->CI;
  // An unseen field (ordinal 0) or one outside the class' ordinal
  // range wraps to a slot past the table.
  const unsigned FID = F->declID();
  const uint32_t Slot =
      (FID < FieldOrd.size() ? FieldOrd[FID] : 0) - 1 - CI.OrdBase;
  if (Slot >= CI.FirstLeaf.size())
    return;
  uint8_t *Obj = R->Bytes.data() + (ObjectID - R->FirstID) * CI.Size;
  for (uint32_t L = CI.FirstLeaf[Slot]; L; L = CI.Leaves[L - 1].NextSame) {
    const LeafInfo &Leaf = CI.Leaves[L - 1];
    // Check the first byte: marks always cover whole leaves, so if it
    // already carries the bits the rest of the leaf does too.
    if (Leaf.Bytes == 0 || (Obj[Leaf.Offset] & Bits) == Bits)
      continue;
    for (uint64_t B = 0; B < Leaf.Bytes; ++B)
      Obj[Leaf.Offset + B] |= Bits;
  }
}

void ShadowProfiler::recordRead(uint64_t ObjectID, const FieldDecl *F) {
  mark(ObjectID, F, SB_Read);
}

void ShadowProfiler::recordWrite(uint64_t ObjectID, const FieldDecl *F) {
  mark(ObjectID, F, SB_Written);
}

void ShadowProfiler::recordAddrTaken(uint64_t ObjectID, const FieldDecl *F) {
  mark(ObjectID, F, SB_AddrTaken);
}

//===----------------------------------------------------------------------===//
// Folding and finalization
//===----------------------------------------------------------------------===//

void ShadowProfiler::foldGroup(AllocRecord &R) {
  const ClassInfo &CI = *R.CI;
  std::vector<SiteAccum> &Cells = SiteGroups[R.Group].Cells;
  for (uint64_t I = 0; I < R.Count; ++I) {
    const uint8_t *Obj = R.Bytes.data() + I * CI.Size;
    for (const LeafInfo &Leaf : CI.Leaves) {
      SiteAccum &A = Cells[Leaf.Cell];
      uint8_t Flags = 0;
      for (uint64_t B = 0; B < Leaf.Bytes; ++B)
        Flags |= Obj[Leaf.Offset + B];
      ++A.Objects;
      A.AllocBytes += Leaf.Bytes;
      A.StaticDead = Leaf.StaticDead;
      if (Flags & SB_Written) {
        A.WrittenBytes += Leaf.Bytes;
        Sum.WrittenBytes += Leaf.Bytes;
      }
      if (Flags & SB_Read) {
        A.ReadBytes += Leaf.Bytes;
        Sum.ReadBytes += Leaf.Bytes;
      } else {
        A.NeverReadBytes += Leaf.Bytes;
        Sum.NeverReadBytes += Leaf.Bytes;
      }
      if (Flags & SB_AddrTaken) {
        A.AddrTakenBytes += Leaf.Bytes;
        Sum.AddrTakenBytes += Leaf.Bytes;
      }
    }
  }
  R.Live = false;
  std::vector<uint8_t>().swap(R.Bytes);
}

const ProfileSummary &ShadowProfiler::finalize(const SourceManager *SM) {
  if (Finalized)
    return Sum;

  // Objects still live at exit leaked; their shadow state still counts
  // toward the attribution table.
  for (AllocRecord &R : Records) {
    if (!R.Live || !R.Counted)
      continue;
    Sum.LeakedObjects += R.Count;
    foldGroup(R);
  }
  Finalized = true;

  // Resolve cells into display rows and order them deterministically
  // (ties keep site-group creation order).
  for (const SiteGroup &G : SiteGroups) {
    PresumedLoc Loc;
    if (SM)
      Loc = SM->presumedLoc(G.Site);
    for (size_t C = 0; C != G.Cells.size(); ++C) {
      const SiteAccum &A = G.Cells[C];
      if (!A.Objects)
        continue;
      ProfileSiteRow Row;
      if (Loc.isValid()) {
        Row.File = std::string(Loc.Filename);
        Row.Line = Loc.Line;
      } else {
        Row.File = "<unknown>";
        Row.Line = 0;
      }
      Row.Class = G.CI->CD->name();
      Row.Member = G.CI->CellFields[C]->qualifiedName();
      Row.Objects = A.Objects;
      Row.AllocBytes = A.AllocBytes;
      Row.WrittenBytes = A.WrittenBytes;
      Row.ReadBytes = A.ReadBytes;
      Row.AddrTakenBytes = A.AddrTakenBytes;
      Row.NeverReadBytes = A.NeverReadBytes;
      Row.StaticDead = A.StaticDead;
      Sum.Sites.push_back(std::move(Row));
    }
  }
  std::stable_sort(Sum.Sites.begin(), Sum.Sites.end(),
                   [](const ProfileSiteRow &L, const ProfileSiteRow &R) {
                     if (L.File != R.File)
                       return L.File < R.File;
                     if (L.Line != R.Line)
                       return L.Line < R.Line;
                     if (L.Class != R.Class)
                       return L.Class < R.Class;
                     return L.Member < R.Member;
                   });
  return Sum;
}

const ProfileSummary &ShadowProfiler::summary() const {
  assert(Finalized && "summary() before finalize()");
  return Sum;
}

void ShadowProfiler::emitCounters() const {
  const DynamicMetrics &M = Sum.Metrics;
  Telemetry::count("profiler.allocs", Sum.AllocEvents);
  Telemetry::count("profiler.frees", Sum.FreeEvents);
  Telemetry::count("profiler.objects", M.NumObjects);
  Telemetry::count("profiler.object_bytes", M.ObjectSpace);
  Telemetry::count("profiler.dead_member_bytes", M.DeadMemberSpace);
  Telemetry::count("profiler.high_water_mark", M.HighWaterMark);
  Telemetry::count("profiler.high_water_mark_no_dead", M.HighWaterMarkNoDead);
  Telemetry::count("profiler.leaked_objects", Sum.LeakedObjects);
  Telemetry::count("profiler.snapshots", Sum.Snapshots.size());
  Telemetry::count("profiler.snapshot_stride", Sum.SnapshotStride);
  Telemetry::count("profiler.sites", Sum.Sites.size());
  Telemetry::count("profiler.read_bytes", Sum.ReadBytes);
  Telemetry::count("profiler.written_bytes", Sum.WrittenBytes);
  Telemetry::count("profiler.addr_taken_bytes", Sum.AddrTakenBytes);
  Telemetry::count("profiler.never_read_bytes", Sum.NeverReadBytes);
}

stats::ProfilerSection dmm::toProfilerSection(const ProfileSummary &P) {
  stats::ProfilerSection S;
  S.Present = true;
  S.ObjectSpace = P.Metrics.ObjectSpace;
  S.DeadMemberSpace = P.Metrics.DeadMemberSpace;
  S.HighWaterMark = P.Metrics.HighWaterMark;
  S.HighWaterMarkNoDead = P.Metrics.HighWaterMarkNoDead;
  S.NumObjects = P.Metrics.NumObjects;
  S.AllocEvents = P.AllocEvents;
  S.FreeEvents = P.FreeEvents;
  S.LeakedObjects = P.LeakedObjects;
  S.PeakAllocEvent = P.PeakAllocEvent;
  S.SnapshotStride = P.SnapshotStride;
  S.Snapshots.reserve(P.Snapshots.size());
  for (const ProfileSnapshot &Snap : P.Snapshots)
    S.Snapshots.push_back(
        {Snap.AllocEvent, Snap.LiveBytes, Snap.LiveBytesNoDead,
         Snap.LiveObjects});
  S.Sites.reserve(P.Sites.size());
  for (const ProfileSiteRow &Row : P.Sites) {
    stats::ProfilerSiteRow Out;
    Out.File = Row.File;
    Out.Line = Row.Line;
    Out.Class = Row.Class;
    Out.Member = Row.Member;
    Out.Objects = Row.Objects;
    Out.AllocBytes = Row.AllocBytes;
    Out.WrittenBytes = Row.WrittenBytes;
    Out.ReadBytes = Row.ReadBytes;
    Out.AddrTakenBytes = Row.AddrTakenBytes;
    Out.NeverReadBytes = Row.NeverReadBytes;
    Out.StaticDead = Row.StaticDead;
    S.Sites.push_back(std::move(Out));
  }
  return S;
}

//===-- profiler/ShadowProfiler.h - Per-byte shadow memory ------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A valgrind-memcheck/massif-style shadow-memory layer driven by the
/// interpreter. Every traced complete object gets a per-byte shadow
/// vector over its layout (allocated / written / read / address-taken
/// bits), keyed by object identity (the interpreter's ObjectID) and the
/// LayoutEngine's member layout. From the shadow state the profiler
/// derives, exactly and online:
///
///  - the paper's dynamic measurements (object space, dead data member
///    space, high-water mark with and without dead members) — these are
///    updated at the same event points as the AllocationTrace, so on any
///    execution they equal trace/DynamicMetrics.h's replayed numbers
///    byte-for-byte (the profiler doubles as a differential oracle for
///    the trace path);
///  - massif-style high-water-mark snapshots on a deterministic
///    allocation-count schedule (stride starts at 1 and doubles whenever
///    the snapshot buffer would exceed its cap, halving the buffer);
///  - per-allocation-site (file:line x class x member) byte attribution:
///    allocated / written / read / address-taken / never-read bytes for
///    every leaf data member, with dead members flagged.
///
/// Read/write attribution follows the engines' FieldHeat record (the
/// same loads and stores), including the paper's footnote-3
/// deallocation exemption (a member loaded only to be freed is not
/// marked read). Member-level
/// marks are expanded to byte ranges through the layout; a member of a
/// repeated non-virtual base shares storage, so a mark sets the bytes of
/// every subobject copy, and union members overlap, so reading one
/// alternative marks the shared bytes of all of them.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_PROFILER_SHADOWPROFILER_H
#define DMM_PROFILER_SHADOWPROFILER_H

#include "hierarchy/ObjectLayout.h"
#include "support/SourceLocation.h"
#include "trace/DynamicMetrics.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dmm {

class ClassHierarchy;
class SourceManager;

namespace stats {
struct ProfilerSection;
}

/// Per-byte shadow states. A byte may carry any combination.
enum ShadowBits : uint8_t {
  SB_Allocated = 1u << 0,
  SB_Written = 1u << 1,
  SB_Read = 1u << 2,
  SB_AddrTaken = 1u << 3,
};

/// One point on the high-water-mark timeline.
struct ProfileSnapshot {
  uint64_t AllocEvent = 0; ///< 1-based allocation-event index.
  uint64_t LiveBytes = 0;
  uint64_t LiveBytesNoDead = 0; ///< Live bytes after removing dead members.
  uint64_t LiveObjects = 0;     ///< Live complete objects.
};

/// Byte attribution for one (allocation site, class, leaf member) cell.
struct ProfileSiteRow {
  std::string File; ///< "<unknown>" when the site has no location.
  unsigned Line = 0;
  std::string Class;  ///< Name of the allocated class.
  std::string Member; ///< Qualified name of the leaf data member.
  uint64_t Objects = 0;
  uint64_t AllocBytes = 0;
  uint64_t WrittenBytes = 0;
  uint64_t ReadBytes = 0;
  uint64_t AddrTakenBytes = 0;
  uint64_t NeverReadBytes = 0; ///< Allocated but never read.
  bool StaticDead = false;     ///< Member (or an enclosing member) is in
                               ///< the analysis dead set.
};

/// Everything the profiler learned about one execution.
struct ProfileSummary {
  /// Identical to computeDynamicMetrics() on the same execution.
  DynamicMetrics Metrics;
  uint64_t AllocEvents = 0;
  uint64_t FreeEvents = 0;
  uint64_t LeakedObjects = 0;  ///< Complete objects alive at exit.
  uint64_t PeakAllocEvent = 0; ///< Event at which the HWM was first hit.
  uint64_t SnapshotStride = 1;
  uint64_t ReadBytes = 0; ///< Distinct object bytes marked read.
  uint64_t WrittenBytes = 0;
  uint64_t AddrTakenBytes = 0;
  uint64_t NeverReadBytes = 0; ///< Leaf member bytes never read.
  std::vector<ProfileSnapshot> Snapshots;
  /// Sorted by (File, Line, Class, Member).
  std::vector<ProfileSiteRow> Sites;
};

/// The shadow-memory profiler. Construct one per execution with the
/// hierarchy and the analysis dead set, point InterpOptions::Profiler at
/// it, run, then finalize(). All hooks are no-ops for IDs the profiler
/// never registered (untraced objects), so the interpreter can call them
/// unconditionally whenever a profiler is installed.
class ShadowProfiler {
public:
  ShadowProfiler(const ClassHierarchy &CH, FieldSet Dead);
  ~ShadowProfiler();

  /// \name Interpreter hooks
  /// @{

  /// Creates shadow state for \p Count complete \p CD objects with
  /// consecutive IDs starting at \p FirstID, allocated at \p Site.
  /// Called as soon as IDs are assigned (before construction, so
  /// constructor stores are captured).
  void registerObjects(const ClassDecl *CD, uint64_t Count, uint64_t FirstID,
                       SourceLocation Site);

  /// Accounts the allocation event for the registered group \p FirstID.
  /// Called adjacent to AllocationTrace::recordAlloc so the profiler
  /// sees events in exactly the trace's order.
  void recordAllocEvent(uint64_t FirstID);

  /// Accounts the deallocation of group \p FirstID and folds its shadow
  /// state into the site table. Double frees and unknown IDs are
  /// ignored, mirroring AllocationTrace::recordFree.
  void recordFree(uint64_t FirstID);

  void recordRead(uint64_t ObjectID, const FieldDecl *F);
  void recordWrite(uint64_t ObjectID, const FieldDecl *F);
  void recordAddrTaken(uint64_t ObjectID, const FieldDecl *F);
  /// @}

  /// Folds leaked objects, resolves sites through \p SM (may be null),
  /// and freezes the summary. Idempotent; hooks become no-ops after.
  const ProfileSummary &finalize(const SourceManager *SM);

  /// The frozen summary; finalize() must have run.
  const ProfileSummary &summary() const;

  /// The dynamic measurements so far (usable before finalize()).
  const DynamicMetrics &metrics() const { return Sum.Metrics; }

  /// Emits profiler.* counters into the active telemetry registry.
  /// Every value is deterministic for a given program, so stats
  /// documents compare equal across runs.
  void emitCounters() const;

private:
  /// One leaf member (scalar or scalar-array) of a class' complete
  /// layout at one offset. A member of a repeated non-virtual base, or
  /// a field nested via two members of the same class type, yields one
  /// leaf per copy; the copies are chained through NextSame.
  struct LeafInfo {
    const FieldDecl *Field = nullptr;
    uint64_t Offset = 0;
    uint64_t Bytes = 0;
    uint32_t Cell = 0;     ///< The field's index in a site group's Cells.
    uint32_t NextSame = 0; ///< 1 + next leaf of the same field, or 0.
    bool StaticDead = false;
  };
  /// Cached expansion of one class' complete layout.
  struct ClassInfo {
    const ClassDecl *CD = nullptr;
    uint64_t Size = 0;      ///< CompleteSize.
    uint64_t DeadPer = 0;   ///< deadBytes() per object.
    uint64_t ShrunkPer = 0; ///< sizeWithoutDead() per object.
    std::vector<LeafInfo> Leaves;
    /// Flat leaf index: FirstLeaf[ordinal - OrdBase] is 1 + the first
    /// leaf of the field with that FieldOrd ordinal, or 0.
    uint32_t OrdBase = 0;
    std::vector<uint32_t> FirstLeaf;
    /// Distinct leaf fields, in first-leaf order (LeafInfo::Cell).
    std::vector<const FieldDecl *> CellFields;
    /// (site key, SiteGroups index), sorted by site key.
    std::vector<std::pair<uint64_t, uint32_t>> Sites;
  };
  /// One allocation group (one alloc event; Count objects) and the
  /// shadow bytes of its objects, Count * CI->Size of them, released
  /// when the group is folded.
  struct AllocRecord {
    const ClassInfo *CI = nullptr;
    uint64_t FirstID = 0;
    uint64_t Count = 0;
    uint32_t Group = 0;   ///< SiteGroups index.
    bool Counted = false; ///< Alloc event recorded.
    bool Live = false;    ///< Registered and not yet folded.
    std::vector<uint8_t> Bytes; ///< ShadowBits per object byte.
  };
  /// Accumulator for one (site, class, member) cell.
  struct SiteAccum {
    uint64_t Objects = 0;
    uint64_t AllocBytes = 0;
    uint64_t WrittenBytes = 0;
    uint64_t ReadBytes = 0;
    uint64_t AddrTakenBytes = 0;
    uint64_t NeverReadBytes = 0;
    bool StaticDead = false;
  };
  /// The cells of one (allocation site, class) pair, one per distinct
  /// leaf field of the class.
  struct SiteGroup {
    SourceLocation Site;
    const ClassInfo *CI = nullptr;
    std::vector<SiteAccum> Cells;
  };

  ClassInfo &classInfo(const ClassDecl *CD);
  void expandClass(const ClassDecl *CD, uint64_t Base, bool DeadCtx,
                   ClassInfo &CI);
  uint32_t siteGroup(ClassInfo &CI, SourceLocation Site);
  /// The live record whose objects include \p ObjectID, or null.
  AllocRecord *liveRecord(uint64_t ObjectID);
  /// The live record whose first object is \p FirstID, or null.
  AllocRecord *liveGroup(uint64_t FirstID);
  void mark(uint64_t ObjectID, const FieldDecl *F, uint8_t Bits);
  void takeSnapshot();
  void foldGroup(AllocRecord &R);

  LayoutEngine Layout;
  FieldSet Dead;
  std::vector<std::unique_ptr<ClassInfo>> Classes; ///< By class declID.
  /// By field declID: 1 + the field's dense leaf-field ordinal, or 0.
  std::vector<uint32_t> FieldOrd;
  uint32_t NumFieldOrds = 0;
  std::vector<AllocRecord> Records;
  /// By ObjectID: 1 + the index of the latest record registering it.
  std::vector<uint32_t> RecordOf;
  std::vector<SiteGroup> SiteGroups;

  ProfileSummary Sum;
  uint64_t LiveBytes = 0;
  uint64_t LiveShrunkBytes = 0;
  uint64_t LiveObjects = 0;
  bool Finalized = false;
};

/// Converts a finalized summary into the stats document's "profiler"
/// section (telemetry/Stats.h, schema version 2).
stats::ProfilerSection toProfilerSection(const ProfileSummary &P);

} // namespace dmm

#endif // DMM_PROFILER_SHADOWPROFILER_H

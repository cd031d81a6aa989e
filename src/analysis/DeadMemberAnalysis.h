//===-- analysis/DeadMemberAnalysis.h - Paper Fig. 2 algorithm --*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's core contribution: a whole-program analysis that
/// conservatively detects dead data members. A member is marked live when
/// its value is read or its address is taken in a function reachable from
/// main(); plain writes (including constructor initialization) do not
/// create liveness. Special cases follow paper §3:
///
///  - volatile members are live when written;
///  - values passed (directly) to `delete`/`free` do not create liveness;
///  - pointer-to-member constants `&C::m` mark the member live;
///  - unsafe casts mark all members transitively contained in the source
///    type live (MarkAllContainedMembers);
///  - a union with one live member has all contained members marked live;
///  - `sizeof` is conservative by default, ignorable by user policy
///    (paper §3.2);
///  - members of library classes are never classified (paper §3.3).
///
//===----------------------------------------------------------------------===//

#ifndef DMM_ANALYSIS_DEADMEMBERANALYSIS_H
#define DMM_ANALYSIS_DEADMEMBERANALYSIS_H

#include "ast/Decl.h"
#include "callgraph/CallGraph.h"
#include "hierarchy/ObjectLayout.h"
#include "support/BitVector.h"
#include "support/SourceLocation.h"

#include <array>
#include <map>
#include <string>
#include <set>
#include <vector>

namespace dmm {

class ASTContext;
class ClassHierarchy;
class Expr;

/// How `sizeof` affects liveness (paper §3.2).
enum class SizeofPolicy {
  /// Any sizeof over a class marks all contained members live.
  Conservative,
  /// The user asserts every sizeof is used only for storage allocation
  /// (true for all of the paper's benchmarks).
  IgnoreAll,
};

/// Tunable policies. Defaults reproduce the paper's configuration except
/// where noted.
struct AnalysisOptions {
  /// Call-graph construction algorithm (the paper uses a PVG/RTA-family
  /// algorithm).
  CallGraphKind CallGraph = CallGraphKind::RTA;

  /// The user has verified that all down-casts are safe (the paper's
  /// authors did so for their benchmarks). When false, down-casts are
  /// unsafe and trigger MarkAllContainedMembers.
  bool AssumeDowncastsSafe = true;

  SizeofPolicy Sizeof = SizeofPolicy::IgnoreAll;

  /// Exempt values passed to delete/free from creating liveness
  /// (paper's deallocation special case). Disable for ablation.
  bool ExemptDeallocationArgs = true;

  /// Names of additional functions "known not to affect some of their
  /// parameters" (paper footnote 3 suggests strcpy-style special
  /// cases): member values passed directly to them do not become live.
  /// The user asserts this; it is not verified.
  std::set<std::string> InertFunctions;

  /// Mark all members of a union live when any one of them is
  /// (required for soundness; disable only to demonstrate the loss).
  bool UnionClosure = true;

  /// Baseline mode: any access (including writes) marks a member live —
  /// what a naive "unused field" linter computes. Disables the
  /// deallocation exemption implicitly.
  bool TreatWritesAsLive = false;

  /// Record, per live member, the cause of its classification: the
  /// source location of the marking expression and, for propagated
  /// marks (unsafe cast / sizeof sweep, union closure), the edge back
  /// to the root cause. Off by default (small but nonzero cost per
  /// visited expression).
  bool RecordProvenance = false;
};

/// Why a member was marked live (first cause wins).
enum class LivenessReason {
  NotAccessed, ///< Member is dead.
  Read,
  AddressTaken,
  PointerToMember,
  UnsafeCast,
  SizeofConservative,
  UnionClosure,
  VolatileWrite,
  Written, ///< Baseline mode only.
};

const char *livenessReasonName(LivenessReason Reason);

/// Short machine-friendly identifier for a reason ("read",
/// "unsafe_cast", ...), used for telemetry counter names and JSON keys.
const char *livenessReasonSlug(LivenessReason Reason);

/// Why a live member is live, at one level of detail deeper than the
/// LivenessReason enum (recorded when AnalysisOptions::RecordProvenance
/// is set). Directly-marked members carry the source location of the
/// marking expression. Propagated members carry the propagation edge:
/// the class whose members were swept (cast-source class or closed
/// union) and — for union closure — the already-live member whose
/// liveness forced the sweep, which chains to *its* provenance.
struct LivenessProvenance {
  LivenessReason Reason = LivenessReason::NotAccessed;
  /// The marking expression (reads, address-of, pointer-to-member,
  /// volatile writes) or the unsafe cast / sizeof that triggered a
  /// contained-member sweep. Invalid for union-closure marks, which
  /// have no single source point.
  SourceLocation Loc;
  /// Propagated marks only: the class whose contained members were
  /// swept (the cast-source class, the sizeof operand class, or the
  /// closed union).
  const ClassDecl *Via = nullptr;
  /// Union-closure marks only: the live member that triggered the
  /// closure. Follow its provenance to reach the root cause.
  const FieldDecl *Trigger = nullptr;

  bool isPropagated() const { return Via != nullptr; }
};

/// Analysis output.
class DeadMemberResult {
public:
  /// True if \p F can be classified at all: members of library or
  /// incomplete classes cannot (paper §3.3).
  bool canClassify(const FieldDecl *F) const {
    return !F->parent()->isLibrary() && F->parent()->isComplete();
  }

  /// True if \p F was proven dead. Always false for unclassifiable
  /// members.
  bool isDead(const FieldDecl *F) const {
    return canClassify(F) && !Live.test(F->declID());
  }

  bool isLive(const FieldDecl *F) const { return Live.test(F->declID()); }

  LivenessReason reason(const FieldDecl *F) const {
    unsigned ID = F->declID();
    return ID < Reasons.size() ? static_cast<LivenessReason>(Reasons[ID])
                               : LivenessReason::NotAccessed;
  }

  /// The recorded cause of \p F's liveness; null when \p F is dead or
  /// the analysis ran without AnalysisOptions::RecordProvenance.
  const LivenessProvenance *provenance(const FieldDecl *F) const {
    auto It = Provenance.find(F);
    return It == Provenance.end() ? nullptr : &It->second;
  }

  /// The dead set over classifiable members, as a FieldSet usable by the
  /// layout engine.
  FieldSet deadSet() const;

  /// All classifiable members, in decl order.
  const std::vector<const FieldDecl *> &classifiableMembers() const {
    return Classifiable;
  }

  /// Dead members in decl order.
  std::vector<const FieldDecl *> deadMembers() const;

private:
  friend class DeadMemberAnalysis;
  /// Liveness marks and their reasons, indexed by FieldDecl::declID()
  /// (decl IDs are dense per compilation, so these are flat bit/byte
  /// arrays rather than pointer-keyed trees).
  BitVector Live;
  std::vector<uint8_t> Reasons;
  std::map<const FieldDecl *, LivenessProvenance> Provenance;
  std::vector<const FieldDecl *> Classifiable;
};

/// Runs the detection algorithm of paper Figure 2.
///
/// The scan (analysis/Scanner.h) visits the global initializers, then
/// the reachable functions in decl-ID order, and marks each member as
/// it finds the first cause; that fixed order makes first-cause-wins
/// reasons, sweep dedup and provenance deterministic.
class DeadMemberAnalysis {
public:
  DeadMemberAnalysis(const ASTContext &Ctx, const ClassHierarchy &CH,
                     AnalysisOptions Options = {});

  /// Runs the analysis: builds the call graph (unless one is injected
  /// via setCallGraph), walks every reachable function, then applies the
  /// union closure.
  DeadMemberResult run(const FunctionDecl *Main);

  /// Injects a pre-built call graph (used by ablation benchmarks to
  /// share graphs); must match Options.CallGraph semantics.
  void setCallGraph(const CallGraph *Graph) { InjectedGraph = Graph; }

  /// The call graph used by the last run().
  const CallGraph &callGraph() const { return *UsedGraph; }

private:
  friend class LivenessScanner;

  /// The first live member transitively contained in \p CD (the union
  /// closure trigger), or null.
  const FieldDecl *containsLiveMember(const ClassDecl *CD) const;

  void markLive(const FieldDecl *F, LivenessReason Reason);
  void markAllContainedMembers(const ClassDecl *CD, LivenessReason Reason);

  const ASTContext &Ctx;
  const ClassHierarchy &CH;
  AnalysisOptions Options;
  const CallGraph *InjectedGraph = nullptr;
  const CallGraph *UsedGraph = nullptr;
  CallGraph OwnedGraph;

  DeadMemberResult Result;
  BitVector MarkVisited; ///< MarkAllContainedMembers dedup, by declID.

  /// \name Provenance context (valid only while RecordProvenance)
  /// The location of the mark being applied, and the sweep edge
  /// (class + triggering member) during a MarkAllContainedMembers
  /// cascade; markLive() snapshots them.
  /// @{
  SourceLocation ProvLoc;
  const ClassDecl *ProvVia = nullptr;
  const FieldDecl *ProvTrigger = nullptr;
  /// @}

  /// \name Telemetry tallies (flushed to the active Telemetry by run())
  /// @{
  uint64_t NumFunctionsProcessed = 0;
  uint64_t NumExprsVisited = 0;
  uint64_t NumUnionClosurePasses = 0;
  std::array<uint64_t, 9> MarksPerReason{};
  /// @}
};

} // namespace dmm

#endif // DMM_ANALYSIS_DEADMEMBERANALYSIS_H

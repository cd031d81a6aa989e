//===-- callgraph/CallGraph.h - Whole-program call graph --------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Call-graph construction. The paper builds its graph with a variant of
/// the Program Virtual-call Graph algorithm (Bacon & Sweeney's RTA
/// family) and notes that "the accuracy of the call graph may have an
/// impact on the precision of the analysis". We provide four builders:
///
///  - Trivial: every defined function is reachable (the weakest baseline;
///    corresponds to running the analysis without reachability).
///  - CHA: Class Hierarchy Analysis; virtual calls dispatch to every
///    override in the static receiver's subtree.
///  - RTA: Rapid Type Analysis; dispatch is restricted to classes
///    instantiated in reachable code (the paper's configuration).
///  - PTA: RTA plus a Steensgaard points-to analysis (callgraph/
///    PointsTo.h); virtual sites dispatch only to classes the receiver
///    may actually reference, and indirect calls only to functions the
///    pointer may address, falling back to RTA where nothing is known.
///
/// All builders handle: implicit constructor/destructor calls (locals,
/// globals, new/delete, base and member subobjects), address-taken
/// functions (assumed reachable, paper §3.3), indirect calls through
/// function pointers (conservatively matched by arity), and library-class
/// callbacks (user overrides of a library class' virtual methods are
/// assumed reachable when the user class is instantiated).
///
//===----------------------------------------------------------------------===//

#ifndef DMM_CALLGRAPH_CALLGRAPH_H
#define DMM_CALLGRAPH_CALLGRAPH_H

#include "ast/Decl.h"
#include "support/BitVector.h"

#include <map>
#include <set>
#include <vector>

namespace dmm {

class ASTContext;
class ClassHierarchy;

/// Which call-graph construction algorithm to run. PTA refines RTA's
/// virtual dispatch with Steensgaard points-to receiver sets (the
/// refinement the paper sketches in section 3.1).
enum class CallGraphKind { Trivial, CHA, RTA, PTA };

/// Returns a display name ("trivial", "CHA", "RTA", "PTA").
const char *callGraphKindName(CallGraphKind Kind);

/// The result of call-graph construction.
class CallGraph {
public:
  /// True if \p FD is reachable from main().
  bool isReachable(const FunctionDecl *FD) const {
    return ReachableBits.test(FD->declID());
  }

  /// Direct + resolved-virtual + implicit callees of \p FD.
  const std::vector<const FunctionDecl *> &
  callees(const FunctionDecl *FD) const;

  /// All reachable functions, deterministically ordered by decl ID.
  std::vector<const FunctionDecl *> reachableFunctions() const;

  /// Classes instantiated in reachable code (drives RTA dispatch; also
  /// reported by the statistics layer).
  const std::set<const ClassDecl *> &instantiatedClasses() const {
    return Instantiated;
  }

  /// Functions whose address is taken in reachable code.
  const std::set<const FunctionDecl *> &addressTaken() const {
    return AddressTaken;
  }

  size_t numEdges() const;

private:
  friend class CallGraphBuilder;
  /// The reachable set, as a decl-ID-indexed bit vector (membership
  /// tests run on every worklist enqueue) plus the discovery-order list
  /// (enumeration); decl IDs are dense per compilation.
  BitVector ReachableBits;
  std::vector<const FunctionDecl *> ReachableList;
  std::map<const FunctionDecl *, std::vector<const FunctionDecl *>> Edges;
  std::set<const ClassDecl *> Instantiated;
  std::set<const FunctionDecl *> AddressTaken;
  static const std::vector<const FunctionDecl *> Empty;
};

/// Builds the call graph of the program rooted at `main`.
CallGraph buildCallGraph(const ASTContext &Ctx, const ClassHierarchy &CH,
                         const FunctionDecl *Main, CallGraphKind Kind);

} // namespace dmm

#endif // DMM_CALLGRAPH_CALLGRAPH_H

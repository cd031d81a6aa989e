//===-- callgraph/CallGraph.cpp -------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "callgraph/CallGraph.h"

#include "callgraph/PointsTo.h"

#include "ast/ASTContext.h"
#include "ast/ASTWalker.h"
#include "ast/Expr.h"
#include "hierarchy/ClassHierarchy.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

using namespace dmm;

const std::vector<const FunctionDecl *> CallGraph::Empty;

const char *dmm::callGraphKindName(CallGraphKind Kind) {
  switch (Kind) {
  case CallGraphKind::Trivial: return "trivial";
  case CallGraphKind::CHA: return "CHA";
  case CallGraphKind::RTA: return "RTA";
  case CallGraphKind::PTA: return "PTA";
  }
  return "unknown";
}

const std::vector<const FunctionDecl *> &
CallGraph::callees(const FunctionDecl *FD) const {
  auto It = Edges.find(FD);
  return It == Edges.end() ? Empty : It->second;
}

std::vector<const FunctionDecl *> CallGraph::reachableFunctions() const {
  std::vector<const FunctionDecl *> Result = ReachableList;
  std::sort(Result.begin(), Result.end(),
            [](const FunctionDecl *A, const FunctionDecl *B) {
              return A->declID() < B->declID();
            });
  return Result;
}

size_t CallGraph::numEdges() const {
  size_t N = 0;
  for (const auto &[Caller, Callees] : Edges)
    N += Callees.size();
  return N;
}

namespace dmm {

/// Worklist-driven builder shared by the Trivial, CHA, and RTA
/// configurations.
class CallGraphBuilder {
public:
  CallGraphBuilder(const ASTContext &Ctx, const ClassHierarchy &CH,
                   CallGraphKind Kind, const PointsToAnalysis *PTA)
      : Ctx(Ctx), CH(CH), Kind(Kind), PTA(PTA) {}

  CallGraph build(const FunctionDecl *Main) {
    if (Kind == CallGraphKind::Trivial) {
      // Everything defined is reachable; all classes are assumed
      // instantiated.
      for (const ClassDecl *CD : Ctx.classes())
        if (CD->isComplete())
          G.Instantiated.insert(CD);
      for (const FunctionDecl *FD : Ctx.functions())
        if (FD->isDefined())
          enqueue(FD);
    }

    if (Main) {
      enqueue(Main);
      // Globals are constructed before and destroyed after main; model
      // their constructor/destructor calls — and any calls made by
      // their initializer expressions — as edges from main.
      for (const VarDecl *GV : Ctx.globals()) {
        handleVarLifetime(Main, GV);
        processGlobalInit(Main, GV);
      }
    }

    uint64_t WorklistIterations = 0;
    while (!Worklist.empty()) {
      const FunctionDecl *FD = Worklist.back();
      Worklist.pop_back();
      ++WorklistIterations;
      processFunction(FD);
    }
    if (Telemetry *T = Telemetry::active()) {
      std::string Prefix = std::string("callgraph.") + callGraphKindName(Kind);
      T->addCounter(Prefix + ".builds", 1);
      T->addCounter(Prefix + ".edges", G.numEdges());
      T->addCounter(Prefix + ".reachable", G.ReachableList.size());
      T->addCounter(Prefix + ".worklist_iterations", WorklistIterations);
      T->addCounter(Prefix + ".virtual_sites", VirtualSites.size());
      T->addCounter(Prefix + ".instantiated_classes", G.Instantiated.size());
    }
    return std::move(G);
  }

private:
  //===--------------------------------------------------------------------===//
  // Core worklist operations
  //===--------------------------------------------------------------------===//

  void enqueue(const FunctionDecl *FD) {
    if (G.ReachableBits.set(FD->declID())) {
      G.ReachableList.push_back(FD);
      Worklist.push_back(FD);
    }
  }

  void addEdge(const FunctionDecl *Caller, const FunctionDecl *Callee) {
    // Decl IDs are dense per compilation, so a caller/callee pair packs
    // into one hashed word — measurably cheaper than an ordered set of
    // pointer pairs on edge-heavy programs.
    const uint64_t Key = (static_cast<uint64_t>(Caller->declID()) << 32) |
                         Callee->declID();
    if (EdgeSet.insert(Key).second)
      G.Edges[Caller].push_back(Callee);
    enqueue(Callee);
  }

  /// Records that objects whose dynamic class is \p CD exist. Under RTA
  /// this unlocks dispatch targets; under CHA/Trivial it only feeds the
  /// statistics and the library-callback rule.
  void instantiate(const FunctionDecl *Caller, const ClassDecl *CD) {
    if (!CD->isComplete() || !G.Instantiated.insert(CD).second)
      return;

    // Member objects are constructed along with CD (their dynamic types
    // exist too). Fields of base subobjects included.
    forEachMemberObjectClass(CD, [&](const ClassDecl *Member) {
      instantiate(Caller, Member);
    });

    // Library-callback rule (paper §3.3): if CD overrides virtual
    // methods of a library base class, the library may invoke those
    // overrides.
    for (const ClassDecl *Base : CH.transitiveBases(CD)) {
      if (!Base->isLibrary())
        continue;
      for (const MethodDecl *BaseM : Base->methods()) {
        if (!BaseM->isVirtual())
          continue;
        if (MethodDecl *Override = CD->findMethod(BaseM->name()))
          enqueue(Override);
      }
    }

    if (Kind != CallGraphKind::RTA && Kind != CallGraphKind::PTA)
      return;
    // Re-resolve pending virtual sites against the new dynamic type.
    for (const VirtualSite &Site : VirtualSites)
      resolveSiteForClass(Site, CD);
  }

  /// Applies \p Fn to the class of every class-typed field (directly or
  /// via arrays) of \p CD and its base subobjects.
  template <typename Fn>
  void forEachMemberObjectClass(const ClassDecl *CD, Fn &&F) {
    auto Visit = [&](const ClassDecl *Cls) {
      for (const FieldDecl *Field : Cls->fields()) {
        const Type *Ty = Field->type();
        if (const auto *AT = dyn_cast<ArrayType>(Ty))
          Ty = AT->element();
        if (const ClassDecl *Member = Ty->asClassDecl())
          F(Member);
      }
    };
    Visit(CD);
    for (const ClassDecl *Base : CH.transitiveBases(CD))
      Visit(Base);
  }

  //===--------------------------------------------------------------------===//
  // Virtual dispatch
  //===--------------------------------------------------------------------===//

  struct VirtualSite {
    const FunctionDecl *Caller;
    /// Dispatch on a method, or (when Method is null) on the destructor
    /// of StaticClass.
    const MethodDecl *Method;
    const ClassDecl *StaticClass;
    /// The receiver expression (method sites: the `->` base or `.`
    /// base; destructor sites: the delete operand); null for
    /// implicit-this calls.
    const Expr *Receiver = nullptr;
    /// True when Receiver is an object lvalue (`.` base) rather than a
    /// pointer value (`->` base / delete operand).
    bool ReceiverIsLocation = false;
  };

  /// Attempts points-to-refined dispatch. Returns true when the site
  /// was fully resolved (no RTA fallback needed).
  bool resolveSiteWithPointsTo(const VirtualSite &Site) {
    if (!PTA)
      return false;
    std::pair<std::set<const ClassDecl *>, bool> Info{{}, false};
    if (Site.Receiver)
      Info = Site.ReceiverIsLocation
                 ? PTA->locationClasses(Site.Receiver)
                 : PTA->pointeeClasses(Site.Receiver);
    else
      Info = PTA->receiverClasses(Site.Caller);
    if (!Info.second)
      return false;
    for (const ClassDecl *Dyn : Info.first)
      resolveSiteForClass(Site, Dyn);
    return true;
  }

  void resolveSiteForClass(const VirtualSite &Site, const ClassDecl *Dyn) {
    if (Site.Method) {
      if (!CH.isDerivedFrom(Dyn, Site.Method->parent()))
        return;
      if (MethodDecl *Target = CH.resolveVirtualCall(Dyn, Site.Method)) {
        if (Target->isDefined() || Target->isBuiltin())
          addEdge(Site.Caller, Target);
      }
      return;
    }
    if (!CH.isDerivedFrom(Dyn, Site.StaticClass))
      return;
    addDestructionEdges(Site.Caller, Dyn);
  }

  void addVirtualSite(VirtualSite Site) {
    switch (Kind) {
    case CallGraphKind::Trivial:
    case CallGraphKind::CHA: {
      const ClassDecl *Root =
          Site.Method ? Site.Method->parent() : Site.StaticClass;
      for (const ClassDecl *Dyn : CH.selfAndSubclasses(Root))
        resolveSiteForClass(Site, Dyn);
      return;
    }
    case CallGraphKind::PTA:
      if (resolveSiteWithPointsTo(Site))
        return;
      [[fallthrough]];
    case CallGraphKind::RTA:
      for (const ClassDecl *Dyn : G.Instantiated)
        resolveSiteForClass(Site, Dyn);
      VirtualSites.push_back(Site);
      return;
    }
  }

  //===--------------------------------------------------------------------===//
  // Construction / destruction edges
  //===--------------------------------------------------------------------===//

  static ConstructorDecl *ctorByArity(const ClassDecl *CD, size_t Arity) {
    for (ConstructorDecl *C : CD->constructors())
      if (C->params().size() == Arity)
        return C;
    return nullptr;
  }

  /// Adds the calls performed to construct a \p CD object when \p Ctor
  /// (possibly null for implicit default construction) runs on behalf of
  /// \p Caller.
  void addConstructionEdges(const FunctionDecl *Caller, const ClassDecl *CD,
                            const ConstructorDecl *Ctor) {
    instantiate(Caller, CD);
    if (!Ctor)
      Ctor = ctorByArity(CD, 0);
    if (Ctor) {
      addEdge(Caller, Ctor);
      return;
    }
    // No constructor declaration: the implicit default constructor
    // directly constructs bases and class-typed members.
    addImplicitConstruction(Caller, CD);
  }

  void addImplicitConstruction(const FunctionDecl *Caller,
                               const ClassDecl *CD) {
    for (const BaseSpecifier &BS : CD->bases()) {
      if (ConstructorDecl *BC = ctorByArity(BS.Base, 0))
        addEdge(Caller, BC);
      else
        addImplicitConstruction(Caller, BS.Base);
    }
    for (const FieldDecl *Field : CD->fields()) {
      const Type *Ty = Field->type();
      if (const auto *AT = dyn_cast<ArrayType>(Ty))
        Ty = AT->element();
      if (const ClassDecl *Member = Ty->asClassDecl()) {
        if (ConstructorDecl *MC = ctorByArity(Member, 0))
          addEdge(Caller, MC);
        else
          addImplicitConstruction(Caller, Member);
      }
    }
  }

  /// Adds the calls performed to destroy a \p CD object (static dispatch).
  void addDestructionEdges(const FunctionDecl *Caller, const ClassDecl *CD) {
    if (DestructorDecl *Dtor = CD->destructor()) {
      addEdge(Caller, Dtor);
      return;
    }
    // Implicit destructor destroys members and bases.
    for (const FieldDecl *Field : CD->fields()) {
      const Type *Ty = Field->type();
      if (const auto *AT = dyn_cast<ArrayType>(Ty))
        Ty = AT->element();
      if (const ClassDecl *Member = Ty->asClassDecl())
        addDestructionEdges(Caller, Member);
    }
    for (const BaseSpecifier &BS : CD->bases())
      addDestructionEdges(Caller, BS.Base);
  }

  /// Walks a global variable's initializer expressions for calls,
  /// address-taken functions, and allocations (they execute before
  /// main).
  void processGlobalInit(const FunctionDecl *Caller, const VarDecl *GV) {
    std::set<const Expr *> CalleePositions;
    std::vector<const Expr *> Roots;
    if (GV->init())
      Roots.push_back(GV->init());
    for (const Expr *Arg : GV->ctorArgs())
      Roots.push_back(Arg);
    for (const Expr *Root : Roots)
      forEachExprPreorder(Root, [&](const Expr *E) {
        if (const auto *Call = dyn_cast<CallExpr>(E))
          CalleePositions.insert(Call->callee());
      });
    for (const Expr *Root : Roots)
      forEachExprPreorder(Root, [&](const Expr *E) {
        processExpr(Caller, E, CalleePositions);
      });
  }

  /// Construction + destruction induced by a variable's lifetime.
  void handleVarLifetime(const FunctionDecl *Caller, const VarDecl *V) {
    const Type *Ty = V->type()->nonReferenceType();
    if (const auto *AT = dyn_cast<ArrayType>(Ty))
      Ty = AT->element();
    const ClassDecl *CD = Ty->asClassDecl();
    if (!CD || V->type()->isReference())
      return;
    addConstructionEdges(Caller, CD, V->ctor());
    addDestructionEdges(Caller, CD);
  }

  //===--------------------------------------------------------------------===//
  // Per-function processing
  //===--------------------------------------------------------------------===//

  void processFunction(const FunctionDecl *FD) {
    // Implicit member/base construction calls of constructors.
    if (const auto *Ctor = dyn_cast<ConstructorDecl>(FD))
      processCtorImplicits(Ctor);
    if (const auto *Dtor = dyn_cast<DestructorDecl>(FD))
      processDtorImplicits(Dtor);

    if (!FD->body() && !isa<ConstructorDecl>(FD))
      return;

    // First pass: identify callee-position expressions so that other
    // uses of function names count as address-taken.
    std::set<const Expr *> CalleePositions;
    forEachExprInFunction(FD, [&](const Expr *E) {
      if (const auto *Call = dyn_cast<CallExpr>(E))
        CalleePositions.insert(Call->callee());
    });

    forEachExprInFunction(FD, [&](const Expr *E) {
      processExpr(FD, E, CalleePositions);
    });

    // Local variable lifetimes.
    if (FD->body())
      forEachStmtPreorder(FD->body(), [&](const Stmt *S) {
        if (const auto *DS = dyn_cast<DeclStmt>(S))
          for (const VarDecl *V : DS->vars())
            handleVarLifetime(FD, V);
      });
  }

  void processCtorImplicits(const ConstructorDecl *Ctor) {
    const ClassDecl *CD = Ctor->parent();
    std::set<const ClassDecl *> InitializedBases;
    std::set<const FieldDecl *> InitializedFields;

    for (const CtorInitializer &Init : Ctor->initializers()) {
      if (Init.Base) {
        InitializedBases.insert(Init.Base);
        if (Init.TargetCtor)
          addEdge(Ctor, Init.TargetCtor);
        else
          addImplicitConstruction(Ctor, Init.Base);
        continue;
      }
      if (!Init.Field)
        continue;
      InitializedFields.insert(Init.Field);
      const Type *Ty = Init.Field->type();
      if (const ClassDecl *Member = Ty->asClassDecl()) {
        if (Init.TargetCtor)
          addEdge(Ctor, Init.TargetCtor);
        else
          addConstructionEdges(Ctor, Member, nullptr);
      }
    }

    // Bases and members without explicit initializers are
    // default-constructed.
    for (const BaseSpecifier &BS : CD->bases())
      if (!InitializedBases.count(BS.Base))
        addConstructionEdges(Ctor, BS.Base, nullptr);
    for (const ClassDecl *VB : CH.virtualBases(CD)) {
      bool Direct = false;
      for (const BaseSpecifier &BS : CD->bases())
        if (BS.Base == VB)
          Direct = true;
      if (!Direct && !InitializedBases.count(VB))
        addConstructionEdges(Ctor, VB, nullptr);
    }
    for (const FieldDecl *Field : CD->fields()) {
      if (InitializedFields.count(Field))
        continue;
      const Type *Ty = Field->type();
      if (const auto *AT = dyn_cast<ArrayType>(Ty))
        Ty = AT->element();
      if (const ClassDecl *Member = Ty->asClassDecl())
        addConstructionEdges(Ctor, Member, nullptr);
    }
  }

  void processDtorImplicits(const DestructorDecl *Dtor) {
    const ClassDecl *CD = Dtor->parent();
    for (const FieldDecl *Field : CD->fields()) {
      const Type *Ty = Field->type();
      if (const auto *AT = dyn_cast<ArrayType>(Ty))
        Ty = AT->element();
      if (const ClassDecl *Member = Ty->asClassDecl())
        addDestructionEdges(Dtor, Member);
    }
    for (const BaseSpecifier &BS : CD->bases())
      addDestructionEdges(Dtor, BS.Base);
    for (const ClassDecl *VB : CH.virtualBases(CD))
      addDestructionEdges(Dtor, VB);
  }

  void processExpr(const FunctionDecl *FD, const Expr *E,
                   const std::set<const Expr *> &CalleePositions) {
    switch (E->kind()) {
    case Expr::Kind::Call: {
      const auto *Call = cast<CallExpr>(E);
      if (const FunctionDecl *Direct = Call->directCallee()) {
        if (Call->isVirtualCall()) {
          const Expr *Receiver = nullptr;
          bool IsLocation = false;
          if (const auto *ME = dyn_cast<MemberExpr>(Call->callee())) {
            Receiver = ME->base();
            IsLocation = !ME->isArrow();
          }
          addVirtualSite({FD, cast<MethodDecl>(Direct), nullptr, Receiver,
                          IsLocation});
        } else if (Direct->isDefined() || Direct->isBuiltin()) {
          addEdge(FD, Direct);
        } else {
          addEdge(FD, Direct); // Undefined: leaf (library function).
        }
        return;
      }
      // Indirect call through a function pointer.
      if (PTA) {
        auto Info = PTA->pointeeFunctions(Call->callee());
        if (Info.second && !Info.first.empty()) {
          for (const FunctionDecl *Target : Info.first)
            if (Target->params().size() == Call->args().size())
              addEdge(FD, Target);
          return;
        }
      }
      IndirectSite Site{FD, Call->args().size()};
      for (const FunctionDecl *Taken : G.AddressTaken)
        if (Taken->params().size() == Site.Arity)
          addEdge(FD, Taken);
      IndirectSites.push_back(Site);
      return;
    }
    case Expr::Kind::DeclRef: {
      const auto *DRE = cast<DeclRefExpr>(E);
      const auto *Fn = dyn_cast_or_null<FunctionDecl>(DRE->referent());
      if (!Fn || CalleePositions.count(E))
        return;
      // A function name used as a value: its address escapes; assume it
      // is reachable (paper §3.3) and feed pending indirect sites.
      if (G.AddressTaken.insert(Fn).second) {
        enqueue(Fn);
        for (const IndirectSite &Site : IndirectSites)
          if (Fn->params().size() == Site.Arity)
            addEdge(Site.Caller, Fn);
      }
      return;
    }
    case Expr::Kind::New: {
      const auto *N = cast<NewExpr>(E);
      const Type *Ty = N->allocType();
      if (const ClassDecl *CD = Ty->asClassDecl())
        addConstructionEdges(FD, CD, N->constructor());
      return;
    }
    case Expr::Kind::Delete: {
      const auto *D = cast<DeleteExpr>(E);
      const Type *SubTy = D->sub()->type();
      const ClassDecl *CD = nullptr;
      if (const auto *PT = dyn_cast_or_null<PointerType>(SubTy))
        CD = PT->pointee()->asClassDecl();
      if (!CD)
        return;
      if (CD->destructor() && CD->destructor()->isVirtual())
        addVirtualSite({FD, nullptr, CD, D->sub(), false});
      else
        addDestructionEdges(FD, CD);
      return;
    }
    default:
      return;
    }
  }

  struct IndirectSite {
    const FunctionDecl *Caller;
    size_t Arity;
  };

  const ASTContext &Ctx;
  const ClassHierarchy &CH;
  CallGraphKind Kind;
  const PointsToAnalysis *PTA;
  CallGraph G;
  std::vector<const FunctionDecl *> Worklist;
  std::unordered_set<uint64_t> EdgeSet;
  std::vector<VirtualSite> VirtualSites;
  std::vector<IndirectSite> IndirectSites;
};

} // namespace dmm

CallGraph dmm::buildCallGraph(const ASTContext &Ctx,
                              const ClassHierarchy &CH,
                              const FunctionDecl *Main,
                              CallGraphKind Kind) {
  Span Timer("callgraph");
  std::unique_ptr<PointsToAnalysis> PTA;
  if (Kind == CallGraphKind::PTA) {
    Span PointsToTimer("callgraph.points_to");
    PTA = std::make_unique<PointsToAnalysis>(Ctx, CH);
    PTA->run();
  }
  CallGraphBuilder Builder(Ctx, CH, Kind, PTA.get());
  return Builder.build(Main);
}

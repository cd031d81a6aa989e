//===-- analysis/Scanner.h - Per-function liveness scan ---------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scan side of the paper's Figure 2 algorithm: the read-only
/// statement/expression walker that DeadMemberAnalysis runs once per
/// reachable function (and once over the global initializers).
///
/// A Scanner performs a pure read of one function's (or one global
/// initializer's) AST — it never consults earlier liveness marks; every
/// decision depends only on the AST and the immutable AnalysisOptions —
/// so one Scanner per function can run on any thread. Causes are
/// emitted as an ordered MarkEvent buffer; first-cause-wins resolution,
/// sweep dedup, and provenance recording happen later, during the
/// deterministic replay in DeadMemberAnalysis.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_ANALYSIS_SCANNER_H
#define DMM_ANALYSIS_SCANNER_H

#include "analysis/DeadMemberAnalysis.h"
#include "ast/ASTWalker.h"
#include "ast/Expr.h"

#include <utility>
#include <vector>

namespace dmm {

/// One liveness cause observed by a function scan, in scan order.
/// Direct marks carry the field; sweep marks (unsafe cast / sizeof)
/// carry the root class whose contained members are marked at replay.
struct MarkEvent {
  const FieldDecl *Field = nullptr; ///< Direct mark target, or null.
  const ClassDecl *Sweep = nullptr; ///< Sweep root, or null.
  LivenessReason Reason = LivenessReason::NotAccessed;
  SourceLocation Loc; ///< The marking expression's location.
};

/// Output of scanning one function (or one global's initializers).
struct ScanOutput {
  std::vector<MarkEvent> Events;
  uint64_t ExprsVisited = 0;
};

/// The read-only statement/expression walker (paper Fig. 2, scan side).
class LivenessScanner {
public:
  explicit LivenessScanner(const AnalysisOptions &Options)
      : Options(Options) {}

  ScanOutput take() { return std::move(Out); }

  void scanFunction(const FunctionDecl *FD) {
    // Constructor initializer lists: targets are writes; arguments are
    // reads.
    if (const auto *Ctor = dyn_cast<ConstructorDecl>(FD)) {
      for (const CtorInitializer &Init : Ctor->initializers()) {
        if (Init.Field) {
          CurLoc = Init.Field->location();
          noteWrite(Init.Field);
        }
        for (const Expr *Arg : Init.Args)
          visit(Arg);
      }
    }

    if (!FD->body())
      return;
    forEachStmtPreorder(FD->body(), [&](const Stmt *S) {
      forEachDirectExpr(S, [&](const Expr *E) { visit(E); });
    });
  }

  /// Global initializers execute before main: scan ctor arguments and
  /// the initializer expression.
  void scanGlobal(const VarDecl *GV) {
    for (const Expr *Arg : GV->ctorArgs())
      visit(Arg);
    if (const Expr *Init = GV->init())
      visit(Init);
  }

private:
  /// Returns the field accessed by \p E when E is a direct member
  /// access (MemberExpr to a FieldDecl, or an implicit-this DeclRefExpr
  /// naming a field); null otherwise.
  static const FieldDecl *directFieldAccess(const Expr *E) {
    if (const auto *ME = dyn_cast<MemberExpr>(E))
      return dyn_cast_or_null<FieldDecl>(ME->member());
    if (const auto *DRE = dyn_cast<DeclRefExpr>(E))
      return dyn_cast_or_null<FieldDecl>(DRE->referent());
    return nullptr;
  }

  /// Strips casts the analysis can see through when matching
  /// deallocation arguments (`delete (T*)m`).
  static const Expr *stripCasts(const Expr *E) {
    while (const auto *CE = dyn_cast<CastExpr>(E))
      E = CE->sub();
    return E;
  }

  void emitMark(const FieldDecl *F, LivenessReason Reason) {
    Out.Events.push_back({F, nullptr, Reason, CurLoc});
  }

  /// Emits a contained-member sweep of the class named by \p Ty
  /// (stripping pointers/references/arrays), if any.
  void emitSweepOfType(const Type *Ty, LivenessReason Reason) {
    // Strip indirections: an unsafe cast of a C* exposes C's members.
    for (;;) {
      if (const auto *PT = dyn_cast<PointerType>(Ty)) {
        Ty = PT->pointee();
        continue;
      }
      if (const auto *RT = dyn_cast<ReferenceType>(Ty)) {
        Ty = RT->pointee();
        continue;
      }
      if (const auto *AT = dyn_cast<ArrayType>(Ty)) {
        Ty = AT->element();
        continue;
      }
      break;
    }
    if (const ClassDecl *CD = Ty->asClassDecl())
      Out.Events.push_back({nullptr, CD, Reason, CurLoc});
  }

  /// Records a write to \p F (ctor initializers and assignment LHS).
  void noteWrite(const FieldDecl *F) {
    if (F->isVolatile()) {
      emitMark(F, LivenessReason::VolatileWrite);
      return;
    }
    if (Options.TreatWritesAsLive)
      emitMark(F, LivenessReason::Written);
  }

  /// Visits the outermost node of an assignment target (plain `=`).
  void visitWriteTarget(const Expr *E) {
    if (const FieldDecl *F = directFieldAccess(E)) {
      noteWrite(F);
      // The base object expression is still evaluated.
      if (const auto *ME = dyn_cast<MemberExpr>(E))
        visit(ME->base());
      return;
    }
    // Any other target shape (deref, subscript, member-pointer access...)
    // evaluates its operands as reads.
    visit(E);
  }

  /// Handles a deallocation argument: the (cast-stripped) top-level
  /// member value does not become live; everything beneath it does.
  void visitDeallocArg(const Expr *E) {
    // Process casts along the way (an unsafe cast in a delete argument
    // still marks members).
    for (const Expr *Cur = E; const auto *CE = dyn_cast<CastExpr>(Cur);
         Cur = CE->sub()) {
      bool Unsafe = CE->safety() == CastSafety::Unrelated ||
                    (CE->safety() == CastSafety::Downcast &&
                     !Options.AssumeDowncastsSafe);
      if (Unsafe) {
        CurLoc = CE->location();
        emitSweepOfType(CE->sub()->type(), LivenessReason::UnsafeCast);
      }
    }
    const Expr *Stripped = stripCasts(E);
    if (const FieldDecl *F = directFieldAccess(Stripped)) {
      (void)F; // The member's value only feeds deallocation: not live.
      if (const auto *ME = dyn_cast<MemberExpr>(Stripped))
        visit(ME->base());
      return;
    }
    visit(Stripped);
  }

  /// Visits \p E in read context.
  void visit(const Expr *E) {
    ++Out.ExprsVisited;
    CurLoc = E->location();
    switch (E->kind()) {
    case Expr::Kind::Member: {
      const auto *ME = cast<MemberExpr>(E);
      if (const auto *F = dyn_cast_or_null<FieldDecl>(ME->member()))
        emitMark(F, LivenessReason::Read);
      visit(ME->base());
      return;
    }
    case Expr::Kind::DeclRef: {
      const auto *DRE = cast<DeclRefExpr>(E);
      if (const auto *F = dyn_cast_or_null<FieldDecl>(DRE->referent()))
        emitMark(F, LivenessReason::Read);
      return;
    }
    case Expr::Kind::MemberPointerConstant: {
      // Fig. 2 lines 26-28: the member's offset is computed; assume it
      // may be accessed anywhere.
      const auto *MPC = cast<MemberPointerConstantExpr>(E);
      if (const FieldDecl *F = MPC->member())
        emitMark(F, LivenessReason::PointerToMember);
      return;
    }
    case Expr::Kind::Unary: {
      const auto *UE = cast<UnaryExpr>(E);
      if (UE->op() == UnaryOpKind::AddrOf) {
        if (const FieldDecl *F = directFieldAccess(UE->sub())) {
          // &e.m: conservatively live; we do not trace the address.
          emitMark(F, LivenessReason::AddressTaken);
          if (const auto *ME = dyn_cast<MemberExpr>(UE->sub()))
            visit(ME->base());
          return;
        }
      }
      visit(UE->sub());
      return;
    }
    case Expr::Kind::Assign: {
      const auto *AE = cast<AssignExpr>(E);
      if (AE->isCompound()) {
        // Compound assignment reads the target too.
        visit(AE->lhs());
      } else {
        visitWriteTarget(AE->lhs());
      }
      visit(AE->rhs());
      return;
    }
    case Expr::Kind::Delete: {
      const auto *DE = cast<DeleteExpr>(E);
      if (Options.ExemptDeallocationArgs && !Options.TreatWritesAsLive)
        visitDeallocArg(DE->sub());
      else
        visit(DE->sub());
      return;
    }
    case Expr::Kind::Call: {
      const auto *Call = cast<CallExpr>(E);
      const FunctionDecl *Direct = Call->directCallee();
      bool IsFree = Direct && (Direct->builtinKind() == BuiltinKind::Free ||
                               Options.InertFunctions.count(Direct->name()));
      // The callee expression is evaluated: a method callee's base
      // object, or a function-pointer load (possibly from a member,
      // which counts as a read).
      visit(Call->callee());
      for (const Expr *Arg : Call->args()) {
        if (IsFree && Options.ExemptDeallocationArgs &&
            !Options.TreatWritesAsLive)
          visitDeallocArg(Arg);
        else
          visit(Arg);
      }
      return;
    }
    case Expr::Kind::Cast: {
      const auto *CE = cast<CastExpr>(E);
      bool Unsafe = CE->safety() == CastSafety::Unrelated ||
                    (CE->safety() == CastSafety::Downcast &&
                     !Options.AssumeDowncastsSafe);
      if (Unsafe)
        emitSweepOfType(CE->sub()->type(), LivenessReason::UnsafeCast);
      visit(CE->sub());
      return;
    }
    case Expr::Kind::Sizeof: {
      if (Options.Sizeof == SizeofPolicy::Conservative) {
        const auto *SE = cast<SizeofExpr>(E);
        const Type *Ty =
            SE->typeOperand() ? SE->typeOperand() : SE->exprOperand()->type();
        emitSweepOfType(Ty, LivenessReason::SizeofConservative);
      }
      // The operand of sizeof is unevaluated: no reads occur.
      return;
    }
    default:
      forEachChildExpr(E, [&](const Expr *Child) { visit(Child); });
      return;
    }
  }

  const AnalysisOptions &Options;
  /// Mirrors the sequential analysis's provenance location: the
  /// expression currently being visited (or a ctor-initializer field's
  /// location). Every emitted event snapshots it.
  SourceLocation CurLoc;
  ScanOutput Out;
};

} // namespace dmm

#endif // DMM_ANALYSIS_SCANNER_H

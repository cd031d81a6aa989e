//===-- ast/SourcePrinter.cpp ---------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ast/SourcePrinter.h"

#include "ast/ASTWalker.h"

#include <cassert>
#include <charconv>

using namespace dmm;

void SourcePrinter::indent(unsigned Levels) {
  for (unsigned I = 0; I != Levels; ++I)
    Out += "  ";
}

void SourcePrinter::emitLine(const std::string &Text) {
  Out += Text;
  Out += '\n';
}

//===----------------------------------------------------------------------===//
// Declarators and types
//===----------------------------------------------------------------------===//

std::string SourcePrinter::declarator(const Type *Ty,
                                      const std::string &Name) {
  // Function pointer: `ret (*name)(params)`.
  if (const auto *PT = dyn_cast<PointerType>(Ty))
    if (const auto *FT = dyn_cast<FunctionType>(PT->pointee())) {
      std::string S = FT->result()->str() + " (*" + Name + ")(";
      for (size_t I = 0; I != FT->params().size(); ++I) {
        if (I)
          S += ", ";
        S += FT->params()[I]->str();
      }
      return S + ")";
    }
  // Array: `elem name[d0][d1]...`.
  if (Ty->isArray()) {
    std::string Dims;
    const Type *Elem = Ty;
    while (const auto *AT = dyn_cast<ArrayType>(Elem)) {
      Dims += "[" + std::to_string(AT->size()) + "]";
      Elem = AT->element();
    }
    return Elem->str() + " " + Name + Dims;
  }
  return Ty->str() + " " + Name;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

namespace {

bool isAtomicExpr(const Expr *E) {
  switch (E->kind()) {
  case Expr::Kind::IntLiteral:
  case Expr::Kind::DoubleLiteral:
  case Expr::Kind::BoolLiteral:
  case Expr::Kind::CharLiteral:
  case Expr::Kind::StringLiteral:
  case Expr::Kind::NullptrLiteral:
  case Expr::Kind::DeclRef:
  case Expr::Kind::This:
  case Expr::Kind::Member:
  case Expr::Kind::Subscript:
  case Expr::Kind::Call:
  case Expr::Kind::MemberPointerConstant:
    return true;
  default:
    return false;
  }
}

std::string escapeChar(char C) {
  switch (C) {
  case '\n': return "\\n";
  case '\t': return "\\t";
  case '\r': return "\\r";
  case '\0': return "\\0";
  case '\\': return "\\\\";
  case '\'': return "\\'";
  case '"': return "\\\"";
  default: return std::string(1, C);
  }
}

const char *unaryOpSpelling(UnaryOpKind Op) {
  switch (Op) {
  case UnaryOpKind::Minus: return "-";
  case UnaryOpKind::Not: return "!";
  case UnaryOpKind::BitNot: return "~";
  case UnaryOpKind::Deref: return "*";
  case UnaryOpKind::AddrOf: return "&";
  case UnaryOpKind::PreInc:
  case UnaryOpKind::PostInc: return "++";
  case UnaryOpKind::PreDec:
  case UnaryOpKind::PostDec: return "--";
  }
  return "?";
}

const char *binaryOpSpelling(BinaryOpKind Op) {
  switch (Op) {
  case BinaryOpKind::Add: return "+";
  case BinaryOpKind::Sub: return "-";
  case BinaryOpKind::Mul: return "*";
  case BinaryOpKind::Div: return "/";
  case BinaryOpKind::Rem: return "%";
  case BinaryOpKind::Shl: return "<<";
  case BinaryOpKind::Shr: return ">>";
  case BinaryOpKind::BitAnd: return "&";
  case BinaryOpKind::BitOr: return "|";
  case BinaryOpKind::BitXor: return "^";
  case BinaryOpKind::LT: return "<";
  case BinaryOpKind::GT: return ">";
  case BinaryOpKind::LE: return "<=";
  case BinaryOpKind::GE: return ">=";
  case BinaryOpKind::EQ: return "==";
  case BinaryOpKind::NE: return "!=";
  case BinaryOpKind::LAnd: return "&&";
  case BinaryOpKind::LOr: return "||";
  }
  return "?";
}

const char *assignOpSpelling(AssignOpKind Op) {
  switch (Op) {
  case AssignOpKind::Assign: return "=";
  case AssignOpKind::AddAssign: return "+=";
  case AssignOpKind::SubAssign: return "-=";
  case AssignOpKind::MulAssign: return "*=";
  case AssignOpKind::DivAssign: return "/=";
  case AssignOpKind::RemAssign: return "%=";
  }
  return "?";
}

} // namespace

void SourcePrinter::printExpr(const Expr *E) {
  auto Paren = [&](const Expr *Sub) {
    if (isAtomicExpr(Sub)) {
      printExpr(Sub);
      return;
    }
    emit("(");
    printExpr(Sub);
    emit(")");
  };

  switch (E->kind()) {
  case Expr::Kind::IntLiteral:
    emit(std::to_string(cast<IntLiteralExpr>(E)->value()));
    return;
  case Expr::Kind::DoubleLiteral: {
    // The shortest spelling that reads back as the same double.
    char Buf[64];
    char *End = std::to_chars(Buf, Buf + sizeof(Buf),
                              cast<DoubleLiteralExpr>(E)->value())
                    .ptr;
    std::string_view S(Buf, End - Buf);
    emit(S);
    if (S.find_first_of(".e") == std::string_view::npos)
      emit(".0");
    return;
  }
  case Expr::Kind::BoolLiteral:
    emit(cast<BoolLiteralExpr>(E)->value() ? "true" : "false");
    return;
  case Expr::Kind::CharLiteral:
    emit("'" + escapeChar(cast<CharLiteralExpr>(E)->value()) + "'");
    return;
  case Expr::Kind::StringLiteral: {
    std::string S = "\"";
    for (char C : cast<StringLiteralExpr>(E)->value())
      S += escapeChar(C);
    emit(S + "\"");
    return;
  }
  case Expr::Kind::NullptrLiteral:
    emit("nullptr");
    return;
  case Expr::Kind::DeclRef:
    emit(Symbols->spelling(cast<DeclRefExpr>(E)->declName()));
    return;
  case Expr::Kind::This:
    emit("this");
    return;
  case Expr::Kind::Member: {
    const auto *ME = cast<MemberExpr>(E);
    Paren(ME->base());
    emit(ME->isArrow() ? "->" : ".");
    if (ME->isQualified()) {
      emit(Symbols->spelling(ME->qualifier()));
      emit("::");
    }
    emit(ME->memberName());
    return;
  }
  case Expr::Kind::MemberPointerConstant: {
    const auto *MPC = cast<MemberPointerConstantExpr>(E);
    emit("&");
    emit(Symbols->spelling(MPC->className()));
    emit("::");
    emit(MPC->memberName());
    return;
  }
  case Expr::Kind::MemberPointerAccess: {
    const auto *MPA = cast<MemberPointerAccessExpr>(E);
    Paren(MPA->base());
    emit(MPA->isArrow() ? "->*" : ".*");
    Paren(MPA->pointer());
    return;
  }
  case Expr::Kind::Unary: {
    const auto *UE = cast<UnaryExpr>(E);
    bool Postfix = UE->op() == UnaryOpKind::PostInc ||
                   UE->op() == UnaryOpKind::PostDec;
    if (!Postfix)
      emit(unaryOpSpelling(UE->op()));
    Paren(UE->sub());
    if (Postfix)
      emit(unaryOpSpelling(UE->op()));
    return;
  }
  case Expr::Kind::Binary: {
    const auto *BE = cast<BinaryExpr>(E);
    Paren(BE->lhs());
    emit(std::string(" ") + binaryOpSpelling(BE->op()) + " ");
    Paren(BE->rhs());
    return;
  }
  case Expr::Kind::Assign: {
    const auto *AE = cast<AssignExpr>(E);
    Paren(AE->lhs());
    emit(std::string(" ") + assignOpSpelling(AE->op()) + " ");
    Paren(AE->rhs());
    return;
  }
  case Expr::Kind::Conditional: {
    const auto *CE = cast<ConditionalExpr>(E);
    Paren(CE->cond());
    emit(" ? ");
    Paren(CE->thenExpr());
    emit(" : ");
    Paren(CE->elseExpr());
    return;
  }
  case Expr::Kind::Comma: {
    const auto *CE = cast<CommaExpr>(E);
    emit("(");
    printExpr(CE->lhs());
    emit(", ");
    printExpr(CE->rhs());
    emit(")");
    return;
  }
  case Expr::Kind::Subscript: {
    const auto *SE = cast<SubscriptExpr>(E);
    Paren(SE->base());
    emit("[");
    printExpr(SE->index());
    emit("]");
    return;
  }
  case Expr::Kind::Call: {
    const auto *Call = cast<CallExpr>(E);
    Paren(Call->callee());
    emit("(");
    for (size_t I = 0; I != Call->args().size(); ++I) {
      if (I)
        emit(", ");
      printExpr(Call->args()[I]);
    }
    emit(")");
    return;
  }
  case Expr::Kind::New: {
    const auto *N = cast<NewExpr>(E);
    emit("new " + N->allocType()->str());
    if (N->isArrayNew()) {
      emit("[");
      printExpr(N->arraySize());
      emit("]");
      return;
    }
    emit("(");
    for (size_t I = 0; I != N->ctorArgs().size(); ++I) {
      if (I)
        emit(", ");
      printExpr(N->ctorArgs()[I]);
    }
    emit(")");
    return;
  }
  case Expr::Kind::Delete: {
    const auto *D = cast<DeleteExpr>(E);
    emit(D->isArrayDelete() ? "delete[] " : "delete ");
    Paren(D->sub());
    return;
  }
  case Expr::Kind::Cast: {
    const auto *CE = cast<CastExpr>(E);
    switch (CE->style()) {
    case CastStyle::CStyle:
      emit("(" + CE->targetType()->str() + ")");
      Paren(CE->sub());
      return;
    case CastStyle::Static:
      emit("static_cast<" + CE->targetType()->str() + ">(");
      printExpr(CE->sub());
      emit(")");
      return;
    case CastStyle::Reinterpret:
      emit("reinterpret_cast<" + CE->targetType()->str() + ">(");
      printExpr(CE->sub());
      emit(")");
      return;
    }
    return;
  }
  case Expr::Kind::Sizeof: {
    const auto *SE = cast<SizeofExpr>(E);
    emit("sizeof(");
    if (SE->typeOperand())
      emit(SE->typeOperand()->str());
    else
      printExpr(SE->exprOperand());
    emit(")");
    return;
  }
  }
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

void SourcePrinter::printVarDecl(const VarDecl *V, unsigned Indent,
                                 bool AsStatement) {
  if (AsStatement)
    indent(Indent);
  emit(declarator(V->type(), V->name()));
  if (V->init()) {
    emit(" = ");
    printExpr(V->init());
  } else if (!V->ctorArgs().empty()) {
    emit("(");
    for (size_t I = 0; I != V->ctorArgs().size(); ++I) {
      if (I)
        emit(", ");
      printExpr(V->ctorArgs()[I]);
    }
    emit(")");
  }
  if (AsStatement)
    emitLine(";");
}

void SourcePrinter::printCompound(const CompoundStmt *CS, unsigned Indent) {
  emitLine("{");
  for (const Stmt *Child : CS->stmts())
    printStmt(Child, Indent + 1);
  indent(Indent);
  emit("}");
}

void SourcePrinter::printStmt(const Stmt *S, unsigned Indent) {
  switch (actOnStmt(S)) {
  case StmtAction::Keep:
    break;
  case StmtAction::Drop:
    return;
  case StmtAction::RhsOnly: {
    const auto *ES = dyn_cast<ExprStmt>(S);
    const auto *AE = ES ? dyn_cast<AssignExpr>(ES->expr()) : nullptr;
    if (AE) {
      indent(Indent);
      printExpr(AE->rhs());
      emitLine(";");
      return;
    }
    break; // Fall back to keeping the statement.
  }
  }

  switch (S->kind()) {
  case Stmt::Kind::Compound:
    indent(Indent);
    printCompound(cast<CompoundStmt>(S), Indent);
    emitLine("");
    return;
  case Stmt::Kind::Decl:
    for (const VarDecl *V : cast<DeclStmt>(S)->vars())
      printVarDecl(V, Indent, /*AsStatement=*/true);
    return;
  case Stmt::Kind::Expr:
    indent(Indent);
    printExpr(cast<ExprStmt>(S)->expr());
    emitLine(";");
    return;
  case Stmt::Kind::If: {
    const auto *IS = cast<IfStmt>(S);
    indent(Indent);
    emit("if (");
    printExpr(IS->cond());
    emitLine(") {");
    printStmt(IS->thenStmt(), Indent + 1);
    indent(Indent);
    if (IS->elseStmt()) {
      emitLine("} else {");
      printStmt(IS->elseStmt(), Indent + 1);
      indent(Indent);
    }
    emitLine("}");
    return;
  }
  case Stmt::Kind::While: {
    const auto *WS = cast<WhileStmt>(S);
    indent(Indent);
    emit("while (");
    printExpr(WS->cond());
    emitLine(") {");
    printStmt(WS->body(), Indent + 1);
    indent(Indent);
    emitLine("}");
    return;
  }
  case Stmt::Kind::For: {
    const auto *FS = cast<ForStmt>(S);
    indent(Indent);
    emit("for (");
    if (const auto *DS = dyn_cast_or_null<DeclStmt>(FS->init())) {
      for (size_t I = 0; I != DS->vars().size(); ++I) {
        const VarDecl *V = DS->vars()[I];
        if (I)
          emit(", " + V->name()); // Same base type assumed.
        else
          printVarDecl(V, 0, /*AsStatement=*/false);
        if (I && V->init()) {
          emit(" = ");
          printExpr(V->init());
        }
      }
      emit("; ");
    } else if (const auto *ES = dyn_cast_or_null<ExprStmt>(FS->init())) {
      printExpr(ES->expr());
      emit("; ");
    } else {
      emit("; ");
    }
    if (FS->cond())
      printExpr(FS->cond());
    emit("; ");
    if (FS->step())
      printExpr(FS->step());
    emitLine(") {");
    printStmt(FS->body(), Indent + 1);
    indent(Indent);
    emitLine("}");
    return;
  }
  case Stmt::Kind::Break:
    indent(Indent);
    emitLine("break;");
    return;
  case Stmt::Kind::Continue:
    indent(Indent);
    emitLine("continue;");
    return;
  case Stmt::Kind::Return: {
    const auto *RS = cast<ReturnStmt>(S);
    indent(Indent);
    if (RS->value()) {
      emit("return ");
      printExpr(RS->value());
      emitLine(";");
    } else {
      emitLine("return;");
    }
    return;
  }
  case Stmt::Kind::Null:
    indent(Indent);
    emitLine(";");
    return;
  }
}

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

void SourcePrinter::printParams(const FunctionDecl *FD) {
  emit("(");
  for (size_t I = 0; I != FD->params().size(); ++I) {
    if (I)
      emit(", ");
    const ParamDecl *P = FD->params()[I];
    std::string Name =
        P->name().empty() ? "p" + std::to_string(I) : P->name();
    emit(declarator(P->type(), Name));
  }
  emit(")");
}

void SourcePrinter::printMethodHead(const MethodDecl *M, bool InClass) {
  if (InClass && M->isVirtual() && !isa<ConstructorDecl>(M))
    emit("virtual ");
  if (const auto *Dtor = dyn_cast<DestructorDecl>(M)) {
    emit(InClass ? Dtor->name()
                 : M->parent()->name() + "::" + Dtor->name());
    emit("()");
    return;
  }
  if (isa<ConstructorDecl>(M)) {
    emit(InClass ? M->name() : M->parent()->name() + "::" + M->name());
    printParams(M);
    return;
  }
  emit(M->returnType()->str() + " ");
  emit(InClass ? M->name() : M->parent()->name() + "::" + M->name());
  printParams(M);
}

void SourcePrinter::printClassHead(const ClassDecl *CD) {
  switch (CD->tagKind()) {
  case TagKind::Class: emit("class "); break;
  case TagKind::Struct: emit("struct "); break;
  case TagKind::Union: emit("union "); break;
  }
  emit(CD->name());
  bool First = true;
  for (const BaseSpecifier &BS : CD->bases()) {
    emit(First ? " : " : ", ");
    First = false;
    if (BS.IsVirtual)
      emit("virtual ");
    emit("public " + BS.Base->name());
  }
}

void SourcePrinter::printFunctionBody(const FunctionDecl *FD,
                                      bool Qualified) {
  if (const auto *M = dyn_cast<MethodDecl>(FD)) {
    printMethodHead(M, /*InClass=*/!Qualified);
  } else {
    emit(FD->returnType()->str() + " " + FD->name());
    printParams(FD);
  }
  if (const auto *Ctor = dyn_cast<ConstructorDecl>(FD)) {
    bool First = true;
    for (const CtorInitializer &Init : Ctor->initializers()) {
      if (!keepCtorInit(Ctor, Init))
        continue;
      emit(First ? " : " : ", ");
      First = false;
      emit(Init.Name + "(");
      for (size_t I = 0; I != Init.Args.size(); ++I) {
        if (I)
          emit(", ");
        printExpr(Init.Args[I]);
      }
      emit(")");
    }
  }
  emit(" ");
  printCompound(FD->body(), 0);
  emitLine("");
  emitLine("");
}

std::string SourcePrinter::print(const ASTContext &Ctx) {
  Out.clear();
  Symbols = &Ctx.symbols();

  // Forward declarations so pointer members may reference any class.
  for (const ClassDecl *CD : Ctx.classes()) {
    const char *Tag = "class ";
    if (CD->tagKind() == TagKind::Struct)
      Tag = "struct ";
    else if (CD->tagKind() == TagKind::Union)
      Tag = "union ";
    emitLine(Tag + CD->name() + ";");
  }
  emitLine("");

  // Class definitions: members and method heads only.
  for (const ClassDecl *CD : Ctx.classes()) {
    if (!CD->isComplete())
      continue;
    printClassHead(CD);
    emitLine(" {");
    emitLine("public:");
    for (const FieldDecl *F : CD->fields()) {
      if (!keepField(F))
        continue;
      indent(1);
      emit(F->isVolatile() ? "volatile " : "");
      emit(declarator(F->type(), F->name()));
      emitLine(";");
    }
    for (const ConstructorDecl *Ctor : CD->constructors()) {
      if (!keepFunction(Ctor))
        continue;
      indent(1);
      printMethodHead(Ctor, true);
      emitLine(";");
    }
    if (CD->destructor() && keepFunction(CD->destructor())) {
      indent(1);
      printMethodHead(CD->destructor(), true);
      emitLine(";");
    }
    for (const MethodDecl *M : CD->methods()) {
      if (!keepFunction(M))
        continue;
      indent(1);
      printMethodHead(M, true);
      emitLine(";");
    }
    emitLine("};");
    emitLine("");
  }

  // Free-function prototypes (so definitions may call forward).
  for (const FunctionDecl *FD : Ctx.functions()) {
    if (FD->kind() != Decl::Kind::Function || FD->isBuiltin())
      continue;
    if (!keepFunction(FD))
      continue;
    emit(FD->returnType()->str() + " " + FD->name());
    printParams(FD);
    emitLine(";");
  }
  emitLine("");

  // Globals.
  for (const VarDecl *GV : Ctx.globals())
    printVarDecl(GV, 0, /*AsStatement=*/true);
  emitLine("");

  // Method bodies (out of line), then free-function bodies.
  for (const ClassDecl *CD : Ctx.classes()) {
    for (const ConstructorDecl *Ctor : CD->constructors())
      if (Ctor->isDefined() && keepFunction(Ctor) && keepBody(Ctor))
        printFunctionBody(Ctor, /*Qualified=*/true);
    if (CD->destructor() && CD->destructor()->isDefined() &&
        keepFunction(CD->destructor()) && keepBody(CD->destructor()))
      printFunctionBody(CD->destructor(), /*Qualified=*/true);
    for (const MethodDecl *M : CD->methods())
      if (M->isDefined() && keepFunction(M) && keepBody(M))
        printFunctionBody(M, /*Qualified=*/true);
  }
  for (const FunctionDecl *FD : Ctx.functions())
    if (FD->kind() == Decl::Kind::Function && !FD->isBuiltin() &&
        FD->isDefined() && keepFunction(FD) && keepBody(FD))
      printFunctionBody(FD, /*Qualified=*/false);

  return Out;
}

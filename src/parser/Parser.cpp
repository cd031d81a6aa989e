//===-- parser/Parser.cpp -------------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "parser/Parser.h"

#include "ast/ASTWalker.h"
#include "lexer/Lexer.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>

using namespace dmm;

namespace {
/// Thrown when the input nests deeper than Parser::kMaxNestingDepth.
struct NestingTooDeep {
  SourceLocation Loc;
};
} // namespace

Parser::Parser(ASTContext &Ctx, const SourceManager &SM,
               DiagnosticsEngine &Diags)
    : Ctx(Ctx), SM(SM), Diags(Diags) {}

Parser::NestingGuard::NestingGuard(Parser &P) : P(P) {
  if (++P.Nesting > kMaxNestingDepth) {
    --P.Nesting;
    throw NestingTooDeep{P.cur().Loc};
  }
}

Expr *Parser::nest(Expr *E) {
  unsigned Tallest = 0;
  forEachChildExpr(E, [&](const Expr *Child) {
    Tallest = std::max(Tallest, Child->height());
  });
  if (Tallest >= kMaxNestingDepth)
    throw NestingTooDeep{E->location()};
  E->setHeight(Tallest + 1);
  return E;
}

//===----------------------------------------------------------------------===//
// Token stream helpers
//===----------------------------------------------------------------------===//

const Token &Parser::tok(unsigned LookAhead) const {
  size_t Index = Pos + LookAhead;
  if (Index >= Tokens.size())
    Index = Tokens.size() - 1; // EndOfFile token.
  return Tokens[Index];
}

void Parser::consume() {
  if (Pos + 1 < Tokens.size())
    ++Pos;
}

bool Parser::tryConsume(TokenKind K) {
  if (cur().isNot(K))
    return false;
  consume();
  return true;
}

bool Parser::expect(TokenKind K, const char *Context) {
  if (tryConsume(K))
    return true;
  Diags.error(cur().Loc, std::string("expected ") + tokenKindName(K) +
                             " " + Context + ", found " +
                             tokenKindName(cur().Kind));
  return false;
}

void Parser::synchronize() {
  unsigned Depth = 0;
  while (cur().isNot(TokenKind::EndOfFile)) {
    if (cur().is(TokenKind::LBrace))
      ++Depth;
    else if (cur().is(TokenKind::RBrace)) {
      if (Depth == 0) {
        consume();
        return;
      }
      --Depth;
    } else if (cur().is(TokenKind::Semi) && Depth == 0) {
      consume();
      return;
    }
    consume();
  }
}

//===----------------------------------------------------------------------===//
// Type-name tracking
//===----------------------------------------------------------------------===//

bool Parser::isTypeName(const Token &T) const {
  return T.is(TokenKind::Identifier) &&
         ClassNames.count(std::string(T.Text)) != 0;
}

bool Parser::startsType(unsigned At) const {
  const Token &T = tok(At);
  switch (T.Kind) {
  case TokenKind::KwVoid:
  case TokenKind::KwBool:
  case TokenKind::KwChar:
  case TokenKind::KwInt:
  case TokenKind::KwDouble:
  case TokenKind::KwConst:
  case TokenKind::KwVolatile:
    return true;
  case TokenKind::Identifier:
    return isTypeName(T);
  default:
    return false;
  }
}

ClassDecl *Parser::lookupClass(const std::string &Name) const {
  auto It = ClassNames.find(Name);
  return It == ClassNames.end() ? nullptr : It->second;
}

ClassDecl *Parser::getOrCreateClass(TagKind Tag, const std::string &Name,
                                    SourceLocation Loc) {
  if (ClassDecl *Existing = lookupClass(Name))
    return Existing;
  ClassDecl *CD = Ctx.create<ClassDecl>(Tag, Name, Loc);
  ClassNames[Name] = CD;
  return CD;
}

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

const Type *Parser::parseType() {
  // Ignored qualifiers.
  while (cur().isOneOf(TokenKind::KwConst, TokenKind::KwVolatile))
    consume();

  const Type *Ty = nullptr;
  switch (cur().Kind) {
  case TokenKind::KwVoid: Ty = Ctx.voidType(); break;
  case TokenKind::KwBool: Ty = Ctx.boolType(); break;
  case TokenKind::KwChar: Ty = Ctx.charType(); break;
  case TokenKind::KwInt: Ty = Ctx.intType(); break;
  case TokenKind::KwDouble: Ty = Ctx.doubleType(); break;
  case TokenKind::Identifier: {
    ClassDecl *CD = lookupClass(std::string(cur().Text));
    if (!CD) {
      Diags.error(cur().Loc,
                  "unknown type name '" + std::string(cur().Text) + "'");
      return nullptr;
    }
    Ty = Ctx.classType(CD);
    break;
  }
  default:
    Diags.error(cur().Loc, std::string("expected type, found ") +
                               tokenKindName(cur().Kind));
    return nullptr;
  }
  consume();

  for (;;) {
    while (cur().isOneOf(TokenKind::KwConst, TokenKind::KwVolatile))
      consume();
    if (tryConsume(TokenKind::Star)) {
      Ty = Ctx.pointerType(Ty);
      continue;
    }
    // Member-pointer suffix: `int A::* pm`.
    if (cur().is(TokenKind::Identifier) && tok(1).is(TokenKind::ColonColon) &&
        tok(2).is(TokenKind::Star)) {
      ClassDecl *CD = lookupClass(std::string(cur().Text));
      if (!CD) {
        Diags.error(cur().Loc, "unknown class name '" +
                                   std::string(cur().Text) +
                                   "' in member pointer type");
        return nullptr;
      }
      consume(); // class name
      consume(); // ::
      consume(); // *
      Ty = Ctx.memberPointerType(CD, Ty);
      continue;
    }
    break;
  }

  if (tryConsume(TokenKind::Amp))
    Ty = Ctx.referenceType(Ty);
  return Ty;
}

const Type *Parser::parseDeclarator(const Type *Ty, std::string &Name,
                                    SourceLocation &NameLoc) {
  // Function-pointer declarator: `(*name)(param-types)`.
  if (cur().is(TokenKind::LParen) && tok(1).is(TokenKind::Star)) {
    consume(); // (
    consume(); // *
    if (cur().is(TokenKind::Identifier)) {
      Name = std::string(cur().Text);
      NameLoc = cur().Loc;
      consume();
    }
    expect(TokenKind::RParen, "after function pointer name");
    expect(TokenKind::LParen, "to begin function pointer parameter list");
    std::vector<const Type *> Params;
    if (cur().isNot(TokenKind::RParen)) {
      do {
        const Type *ParamTy = parseType();
        if (!ParamTy)
          return nullptr;
        // Optional parameter name inside the function-pointer type.
        if (cur().is(TokenKind::Identifier))
          consume();
        Params.push_back(ParamTy);
      } while (tryConsume(TokenKind::Comma));
    }
    expect(TokenKind::RParen, "to end function pointer parameter list");
    return Ctx.pointerType(Ctx.functionType(Ty, std::move(Params)));
  }

  if (cur().is(TokenKind::Identifier)) {
    Name = std::string(cur().Text);
    NameLoc = cur().Loc;
    consume();
  }

  // Array suffixes; collect extents, then build innermost-last.
  std::vector<uint64_t> Extents;
  while (tryConsume(TokenKind::LBracket)) {
    if (cur().is(TokenKind::IntLiteral)) {
      Extents.push_back(static_cast<uint64_t>(cur().IntValue));
      consume();
    } else {
      Diags.error(cur().Loc, "expected integer array extent");
      Extents.push_back(1);
    }
    expect(TokenKind::RBracket, "after array extent");
  }
  for (auto It = Extents.rbegin(), E = Extents.rend(); It != E; ++It)
    Ty = Ctx.arrayType(Ty, *It);
  return Ty;
}

//===----------------------------------------------------------------------===//
// Top-level declarations
//===----------------------------------------------------------------------===//

bool Parser::parseBuffer(uint32_t FileID) {
  std::vector<Token> Lexed;
  {
    Span Timer("lex");
    Lexer Lex(SM, FileID, Diags);
    Lexed = Lex.lexAll();
  }
  Telemetry::count("lex.tokens", Lexed.size());
  Telemetry::count("lex.buffers");
  return parseTokens(std::move(Lexed));
}

bool Parser::parseTokens(std::vector<Token> NewTokens) {
  Span Timer("parse");
  Tokens = std::move(NewTokens);
  Pos = 0;
  unsigned ErrorsBefore = Diags.errorCount();
  try {
    while (cur().isNot(TokenKind::EndOfFile))
      parseTopLevelDecl();
  } catch (const NestingTooDeep &E) {
    // The rest of the buffer is abandoned; declarations parsed so far
    // stay, so Sema still reports what it can.
    Diags.error(E.Loc, "nesting too deep (the limit is " +
                           std::to_string(kMaxNestingDepth) + " levels)");
  }
  return Diags.errorCount() == ErrorsBefore;
}

void Parser::parseTopLevelDecl() {
  unsigned ErrorsBefore = Diags.errorCount();
  switch (cur().Kind) {
  case TokenKind::KwClass:
    consume();
    parseClass(TagKind::Class);
    break;
  case TokenKind::KwStruct:
    consume();
    parseClass(TagKind::Struct);
    break;
  case TokenKind::KwUnion:
    consume();
    parseClass(TagKind::Union);
    break;
  case TokenKind::Identifier:
    // `C::C(...)` or `C::~C(...)` out-of-line special members.
    if (tok(1).is(TokenKind::ColonColon) &&
        (tok(2).is(TokenKind::Tilde) ||
         (tok(2).is(TokenKind::Identifier) && tok(2).Text == cur().Text))) {
      parseOutOfLineMember(/*ReturnTy=*/nullptr);
      break;
    }
    [[fallthrough]];
  default: {
    if (!startsType()) {
      Diags.error(cur().Loc, std::string("expected declaration, found ") +
                                 tokenKindName(cur().Kind));
      synchronize();
      return;
    }
    const Type *Ty = parseType();
    if (!Ty) {
      synchronize();
      return;
    }
    // `T C::name(...)` out-of-line method.
    if (cur().is(TokenKind::Identifier) && tok(1).is(TokenKind::ColonColon) &&
        tok(2).is(TokenKind::Identifier)) {
      parseOutOfLineMember(Ty);
      break;
    }
    parseFunctionOrGlobal(Ty);
    break;
  }
  }
  if (Diags.errorCount() != ErrorsBefore)
    synchronize();
}

void Parser::parseClass(TagKind Tag) {
  if (cur().isNot(TokenKind::Identifier)) {
    Diags.error(cur().Loc, "expected class name");
    return;
  }
  std::string Name(cur().Text);
  SourceLocation Loc = cur().Loc;
  consume();

  ClassDecl *CD = getOrCreateClass(Tag, Name, Loc);

  if (tryConsume(TokenKind::Semi))
    return; // Forward declaration.

  if (CD->isComplete()) {
    Diags.error(Loc, "redefinition of '" + Name + "'");
    synchronize();
    return;
  }

  // Base clause.
  if (tryConsume(TokenKind::Colon)) {
    do {
      BaseSpecifier BS;
      for (;;) {
        if (tryConsume(TokenKind::KwVirtual)) {
          BS.IsVirtual = true;
          continue;
        }
        if (cur().isOneOf(TokenKind::KwPublic, TokenKind::KwPrivate,
                          TokenKind::KwProtected)) {
          consume();
          continue;
        }
        break;
      }
      if (cur().isNot(TokenKind::Identifier)) {
        Diags.error(cur().Loc, "expected base class name");
        return;
      }
      BS.Loc = cur().Loc;
      BS.Base = lookupClass(std::string(cur().Text));
      if (!BS.Base) {
        Diags.error(cur().Loc,
                    "unknown base class '" + std::string(cur().Text) + "'");
        return;
      }
      consume();
      CD->addBase(BS);
    } while (tryConsume(TokenKind::Comma));
  }

  if (!expect(TokenKind::LBrace, "to begin class body"))
    return;
  parseClassBody(CD);
  CD->setComplete();
  Ctx.translationUnit()->addDecl(CD);
  expect(TokenKind::Semi, "after class definition");
}

void Parser::parseClassBody(ClassDecl *CD) {
  while (cur().isNot(TokenKind::RBrace) &&
         cur().isNot(TokenKind::EndOfFile)) {
    // Access specifier labels are parsed and ignored.
    if (cur().isOneOf(TokenKind::KwPublic, TokenKind::KwPrivate,
                      TokenKind::KwProtected) &&
        tok(1).is(TokenKind::Colon)) {
      consume();
      consume();
      continue;
    }
    unsigned ErrorsBefore = Diags.errorCount();
    parseMember(CD);
    if (Diags.errorCount() != ErrorsBefore)
      synchronize();
  }
  expect(TokenKind::RBrace, "to end class body");
}

void Parser::parseMember(ClassDecl *CD) {
  // Destructor.
  bool IsVirtual = false;
  if (cur().is(TokenKind::KwVirtual)) {
    IsVirtual = true;
    consume();
  }
  if (cur().is(TokenKind::Tilde)) {
    consume();
    if (cur().isNot(TokenKind::Identifier) || cur().Text != CD->name()) {
      Diags.error(cur().Loc, "destructor name must match class name");
      return;
    }
    SourceLocation Loc = cur().Loc;
    consume();
    auto *Dtor =
        Ctx.create<DestructorDecl>(CD, Ctx.voidType(), IsVirtual, Loc);
    expect(TokenKind::LParen, "after destructor name");
    expect(TokenKind::RParen, "after destructor name");
    if (CD->destructor())
      Diags.error(Loc, "redefinition of destructor for '" + CD->name() + "'");
    CD->setDestructor(Dtor);
    if (tryConsume(TokenKind::Semi))
      return;
    Dtor->setBody(parseCompoundStmt());
    tryConsume(TokenKind::Semi);
    return;
  }

  // Constructor: `ClassName ( ... )`.
  if (cur().is(TokenKind::Identifier) && cur().Text == CD->name() &&
      tok(1).is(TokenKind::LParen)) {
    SourceLocation Loc = cur().Loc;
    consume();
    auto *Ctor = Ctx.create<ConstructorDecl>(CD, Ctx.voidType(), Loc);
    parseParamList(Ctor);
    CD->addConstructor(Ctor);
    if (tryConsume(TokenKind::Semi))
      return;
    if (cur().is(TokenKind::Colon))
      parseCtorInitList(Ctor, CD);
    Ctor->setBody(parseCompoundStmt());
    tryConsume(TokenKind::Semi);
    return;
  }

  bool IsVolatile = false;
  while (cur().isOneOf(TokenKind::KwConst, TokenKind::KwVolatile)) {
    if (cur().is(TokenKind::KwVolatile))
      IsVolatile = true;
    consume();
  }

  const Type *Ty = parseType();
  if (!Ty)
    return;

  // Method: `T name ( ... )`.
  if (cur().is(TokenKind::Identifier) && tok(1).is(TokenKind::LParen)) {
    std::string Name(cur().Text);
    SourceLocation Loc = cur().Loc;
    consume();
    if (CD->findMethod(Name) || CD->findField(Name)) {
      Diags.error(Loc, "redeclaration of member '" + Name + "' (MiniC++ has "
                       "no overloading)");
      return;
    }
    auto *M = Ctx.create<MethodDecl>(Name, Ty, CD, IsVirtual, Loc);
    parseParamList(M);
    CD->addMethod(M);
    if (tryConsume(TokenKind::Semi))
      return;
    // Pure virtual: `= 0 ;`.
    if (cur().is(TokenKind::Equal) && tok(1).is(TokenKind::IntLiteral) &&
        tok(1).IntValue == 0) {
      consume();
      consume();
      expect(TokenKind::Semi, "after pure-virtual specifier");
      return;
    }
    M->setBody(parseCompoundStmt());
    tryConsume(TokenKind::Semi);
    return;
  }

  // Data member(s): `T name [N]? (, name...)* ;` (function-pointer
  // members also come through parseDeclarator).
  do {
    std::string Name;
    SourceLocation NameLoc = cur().Loc;
    const Type *FieldTy = parseDeclarator(Ty, Name, NameLoc);
    if (!FieldTy)
      return;
    if (Name.empty()) {
      Diags.error(cur().Loc, "expected data member name");
      return;
    }
    if (CD->findField(Name) || CD->findMethod(Name)) {
      Diags.error(NameLoc, "duplicate member '" + Name + "'");
      return;
    }
    auto *F = Ctx.create<FieldDecl>(
        Name, FieldTy, IsVolatile, CD,
        static_cast<unsigned>(CD->fields().size()), NameLoc);
    CD->addField(F);
  } while (tryConsume(TokenKind::Comma));
  expect(TokenKind::Semi, "after data member declaration");
}

void Parser::parseCtorInitList(ConstructorDecl *Ctor, ClassDecl *CD) {
  (void)CD;
  expect(TokenKind::Colon, "to begin constructor initializer list");
  do {
    if (cur().isNot(TokenKind::Identifier)) {
      Diags.error(cur().Loc, "expected member or base name in initializer "
                             "list");
      return;
    }
    CtorInitializer Init;
    Init.Name = std::string(cur().Text);
    Init.Loc = cur().Loc;
    consume();
    expect(TokenKind::LParen, "in constructor initializer");
    if (cur().isNot(TokenKind::RParen)) {
      do
        Init.Args.push_back(parseAssign());
      while (tryConsume(TokenKind::Comma));
    }
    expect(TokenKind::RParen, "in constructor initializer");
    Ctor->addInitializer(std::move(Init));
  } while (tryConsume(TokenKind::Comma));
}

void Parser::parseParamList(FunctionDecl *FD) {
  expect(TokenKind::LParen, "to begin parameter list");
  if (cur().isNot(TokenKind::RParen)) {
    do {
      const Type *Ty = parseType();
      if (!Ty)
        return;
      std::string Name;
      SourceLocation NameLoc = cur().Loc;
      const Type *ParamTy = parseDeclarator(Ty, Name, NameLoc);
      if (!ParamTy)
        return;
      FD->addParam(Ctx.create<ParamDecl>(Name, ParamTy, NameLoc));
    } while (tryConsume(TokenKind::Comma));
  }
  expect(TokenKind::RParen, "to end parameter list");
}

void Parser::parseOutOfLineMember(const Type *ReturnTy) {
  assert(cur().is(TokenKind::Identifier) && "caller checked class name");
  std::string ClassName(cur().Text);
  SourceLocation ClassLoc = cur().Loc;
  ClassDecl *CD = lookupClass(ClassName);
  consume();
  expect(TokenKind::ColonColon, "in out-of-line member definition");
  if (!CD) {
    Diags.error(ClassLoc, "unknown class '" + ClassName + "'");
    return;
  }

  if (!ReturnTy) {
    // Constructor or destructor definition.
    if (tryConsume(TokenKind::Tilde)) {
      if (cur().isNot(TokenKind::Identifier) || cur().Text != ClassName) {
        Diags.error(cur().Loc, "destructor name must match class name");
        return;
      }
      consume();
      expect(TokenKind::LParen, "after destructor name");
      expect(TokenKind::RParen, "after destructor name");
      DestructorDecl *Dtor = CD->destructor();
      if (!Dtor) {
        Diags.error(ClassLoc,
                    "out-of-line destructor for class without declared "
                    "destructor");
        return;
      }
      if (Dtor->isDefined()) {
        Diags.error(ClassLoc, "redefinition of destructor");
        return;
      }
      Dtor->setBody(parseCompoundStmt());
      tryConsume(TokenKind::Semi);
      return;
    }
    // Constructor.
    assert(cur().is(TokenKind::Identifier) && cur().Text == ClassName &&
           "caller checked constructor name");
    SourceLocation Loc = cur().Loc;
    consume();
    // Parse params into a scratch ctor, then match an in-class
    // declaration by arity (MiniC++ constructor overloads differ in
    // arity).
    auto *Scratch = Ctx.create<ConstructorDecl>(CD, Ctx.voidType(), Loc);
    parseParamList(Scratch);
    ConstructorDecl *Def = nullptr;
    for (ConstructorDecl *C : CD->constructors())
      if (C != Scratch && C->params().size() == Scratch->params().size())
        Def = C;
    if (Def) {
      // Adopt the definition's parameter names.
      Def->setParams(Scratch->params());
    } else {
      // No in-class declaration: the scratch decl is the definition.
      CD->addConstructor(Scratch);
      Def = Scratch;
    }
    if (Def->isDefined()) {
      Diags.error(Loc, "redefinition of constructor");
      return;
    }
    if (cur().is(TokenKind::Colon))
      parseCtorInitList(Def, CD);
    Def->setBody(parseCompoundStmt());
    tryConsume(TokenKind::Semi);
    return;
  }

  // Method definition: `T C::name(params) { ... }`.
  if (cur().isNot(TokenKind::Identifier)) {
    Diags.error(cur().Loc, "expected method name");
    return;
  }
  std::string Name(cur().Text);
  SourceLocation Loc = cur().Loc;
  consume();
  MethodDecl *M = CD->findMethod(Name);
  if (!M) {
    Diags.error(Loc, "out-of-line definition of '" + Name +
                         "' does not match any declaration in '" + ClassName +
                         "'");
    return;
  }
  if (M->isDefined()) {
    Diags.error(Loc, "redefinition of method '" + Name + "'");
    return;
  }
  // Re-parse the parameter list; adopt the definition's names.
  auto *Scratch = Ctx.createDetached<MethodDecl>(Name, ReturnTy, CD,
                                                 /*IsVirtual=*/false, Loc);
  parseParamList(Scratch);
  if (Scratch->params().size() != M->params().size())
    Diags.error(Loc, "parameter count mismatch in out-of-line definition of "
                     "'" + Name + "'");
  M->setParams(Scratch->params());
  M->setBody(parseCompoundStmt());
  tryConsume(TokenKind::Semi);
}

void Parser::parseFunctionOrGlobal(const Type *Ty) {
  if (cur().isNot(TokenKind::Identifier) &&
      !(cur().is(TokenKind::LParen) && tok(1).is(TokenKind::Star))) {
    Diags.error(cur().Loc, "expected declarator");
    return;
  }

  // Function prototype or definition: `T name ( ...`. A parenthesized
  // list that does not start with a type is a global object with
  // constructor arguments (`Cfg g(level + 1);`), not a function — the
  // classic most-vexing-parse disambiguation.
  if (cur().is(TokenKind::Identifier) && tok(1).is(TokenKind::LParen) &&
      (tok(2).is(TokenKind::RParen) || startsType(2))) {
    std::string Name(cur().Text);
    SourceLocation Loc = cur().Loc;
    consume();
    auto It = FunctionNames.find(Name);
    FunctionDecl *FD = nullptr;
    if (It != FunctionNames.end()) {
      FD = It->second;
      // Re-parse params into a detached scratch decl and adopt its
      // names (a registered scratch would shadow FD in Sema's global
      // scope).
      auto *Scratch = Ctx.createDetached<FunctionDecl>(Name, Ty, Loc);
      parseParamList(Scratch);
      if (Scratch->params().size() != FD->params().size())
        Diags.error(Loc, "parameter count mismatch with earlier declaration "
                         "of '" + Name + "'");
      FD->setParams(Scratch->params());
    } else {
      FD = Ctx.create<FunctionDecl>(Name, Ty, Loc);
      parseParamList(FD);
      FunctionNames[Name] = FD;
      Ctx.translationUnit()->addDecl(FD);
    }
    if (tryConsume(TokenKind::Semi))
      return; // Prototype.
    if (FD->isDefined()) {
      Diags.error(Loc, "redefinition of function '" + Name + "'");
      synchronize();
      return;
    }
    FD->setBody(parseCompoundStmt());
    tryConsume(TokenKind::Semi);
    return;
  }

  // Global variable(s).
  do {
    std::string Name;
    SourceLocation NameLoc = cur().Loc;
    const Type *VarTy = parseDeclarator(Ty, Name, NameLoc);
    if (!VarTy)
      return;
    if (Name.empty()) {
      Diags.error(cur().Loc, "expected variable name");
      return;
    }
    auto *V = Ctx.create<VarDecl>(Name, VarTy, NameLoc);
    V->setGlobal();
    if (tryConsume(TokenKind::Equal))
      V->setInit(parseAssign());
    else if (tryConsume(TokenKind::LParen)) {
      std::vector<Expr *> Args;
      if (cur().isNot(TokenKind::RParen)) {
        do
          Args.push_back(parseAssign());
        while (tryConsume(TokenKind::Comma));
      }
      expect(TokenKind::RParen, "after constructor arguments");
      V->setCtorArgs(std::move(Args));
    }
    Ctx.registerGlobal(V);
    Ctx.translationUnit()->addDecl(V);
  } while (tryConsume(TokenKind::Comma));
  expect(TokenKind::Semi, "after variable declaration");
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

CompoundStmt *Parser::parseCompoundStmt() {
  SourceLocation Loc = cur().Loc;
  expect(TokenKind::LBrace, "to begin block");
  auto *CS = Ctx.create<CompoundStmt>(Loc);
  while (cur().isNot(TokenKind::RBrace) &&
         cur().isNot(TokenKind::EndOfFile)) {
    unsigned ErrorsBefore = Diags.errorCount();
    CS->addStmt(parseStmt());
    if (Diags.errorCount() != ErrorsBefore)
      synchronize();
  }
  expect(TokenKind::RBrace, "to end block");
  return CS;
}

Stmt *Parser::parseStmt() {
  NestingGuard Guard(*this);
  switch (cur().Kind) {
  case TokenKind::LBrace:
    return parseCompoundStmt();
  case TokenKind::KwIf:
    return parseIfStmt();
  case TokenKind::KwWhile:
    return parseWhileStmt();
  case TokenKind::KwFor:
    return parseForStmt();
  case TokenKind::KwReturn:
    return parseReturnStmt();
  case TokenKind::KwBreak: {
    SourceLocation Loc = cur().Loc;
    consume();
    expect(TokenKind::Semi, "after 'break'");
    return Ctx.create<BreakStmt>(Loc);
  }
  case TokenKind::KwContinue: {
    SourceLocation Loc = cur().Loc;
    consume();
    expect(TokenKind::Semi, "after 'continue'");
    return Ctx.create<ContinueStmt>(Loc);
  }
  case TokenKind::Semi: {
    SourceLocation Loc = cur().Loc;
    consume();
    return Ctx.create<NullStmt>(Loc);
  }
  default:
    break;
  }

  // Declaration statements: a type name followed by a declarator. A bare
  // class name followed by an identifier, `*`, `&`, or `(` (function
  // pointer) starts a declaration; anything else is an expression.
  if (startsType())
    return parseDeclStmt();

  SourceLocation Loc = cur().Loc;
  Expr *E = parseExpr();
  expect(TokenKind::Semi, "after expression statement");
  return Ctx.create<ExprStmt>(E, Loc);
}

Stmt *Parser::parseDeclStmt() {
  SourceLocation Loc = cur().Loc;
  const Type *Ty = parseType();
  auto *DS = Ctx.create<DeclStmt>(Loc);
  if (!Ty)
    return DS;
  do {
    std::string Name;
    SourceLocation NameLoc = cur().Loc;
    const Type *VarTy = parseDeclarator(Ty, Name, NameLoc);
    if (!VarTy)
      return DS;
    if (Name.empty()) {
      Diags.error(cur().Loc, "expected variable name");
      return DS;
    }
    auto *V = Ctx.create<VarDecl>(Name, VarTy, NameLoc);
    if (tryConsume(TokenKind::Equal))
      V->setInit(parseAssign());
    else if (tryConsume(TokenKind::LParen)) {
      std::vector<Expr *> Args;
      if (cur().isNot(TokenKind::RParen)) {
        do
          Args.push_back(parseAssign());
        while (tryConsume(TokenKind::Comma));
      }
      expect(TokenKind::RParen, "after constructor arguments");
      V->setCtorArgs(std::move(Args));
    }
    DS->addVar(V);
  } while (tryConsume(TokenKind::Comma));
  expect(TokenKind::Semi, "after declaration");
  return DS;
}

Stmt *Parser::parseIfStmt() {
  SourceLocation Loc = cur().Loc;
  consume(); // if
  expect(TokenKind::LParen, "after 'if'");
  Expr *Cond = parseExpr();
  expect(TokenKind::RParen, "after condition");
  Stmt *Then = parseStmt();
  Stmt *Else = nullptr;
  if (tryConsume(TokenKind::KwElse))
    Else = parseStmt();
  return Ctx.create<IfStmt>(Cond, Then, Else, Loc);
}

Stmt *Parser::parseWhileStmt() {
  SourceLocation Loc = cur().Loc;
  consume(); // while
  expect(TokenKind::LParen, "after 'while'");
  Expr *Cond = parseExpr();
  expect(TokenKind::RParen, "after condition");
  Stmt *Body = parseStmt();
  return Ctx.create<WhileStmt>(Cond, Body, Loc);
}

Stmt *Parser::parseForStmt() {
  SourceLocation Loc = cur().Loc;
  consume(); // for
  expect(TokenKind::LParen, "after 'for'");
  Stmt *Init = nullptr;
  if (cur().is(TokenKind::Semi)) {
    SourceLocation SemiLoc = cur().Loc;
    consume();
    Init = Ctx.create<NullStmt>(SemiLoc);
  } else if (startsType()) {
    Init = parseDeclStmt();
  } else {
    SourceLocation ExprLoc = cur().Loc;
    Expr *E = parseExpr();
    expect(TokenKind::Semi, "after for-init expression");
    Init = Ctx.create<ExprStmt>(E, ExprLoc);
  }
  Expr *Cond = nullptr;
  if (cur().isNot(TokenKind::Semi))
    Cond = parseExpr();
  expect(TokenKind::Semi, "after for condition");
  Expr *Step = nullptr;
  if (cur().isNot(TokenKind::RParen))
    Step = parseExpr();
  expect(TokenKind::RParen, "after for clauses");
  Stmt *Body = parseStmt();
  return Ctx.create<ForStmt>(Init, Cond, Step, Body, Loc);
}

Stmt *Parser::parseReturnStmt() {
  SourceLocation Loc = cur().Loc;
  consume(); // return
  Expr *Value = nullptr;
  if (cur().isNot(TokenKind::Semi))
    Value = parseExpr();
  expect(TokenKind::Semi, "after return statement");
  return Ctx.create<ReturnStmt>(Value, Loc);
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

Expr *Parser::parseExpr() {
  Expr *LHS = parseAssign();
  while (cur().is(TokenKind::Comma)) {
    SourceLocation Loc = cur().Loc;
    consume();
    Expr *RHS = parseAssign();
    LHS = nest(Ctx.create<CommaExpr>(LHS, RHS, Loc));
  }
  return LHS;
}

static bool isAssignOp(TokenKind K, AssignOpKind &Op) {
  switch (K) {
  case TokenKind::Equal: Op = AssignOpKind::Assign; return true;
  case TokenKind::PlusEqual: Op = AssignOpKind::AddAssign; return true;
  case TokenKind::MinusEqual: Op = AssignOpKind::SubAssign; return true;
  case TokenKind::StarEqual: Op = AssignOpKind::MulAssign; return true;
  case TokenKind::SlashEqual: Op = AssignOpKind::DivAssign; return true;
  case TokenKind::PercentEqual: Op = AssignOpKind::RemAssign; return true;
  default: return false;
  }
}

Expr *Parser::parseAssign() {
  Expr *LHS = parseBinary(0);
  AssignOpKind Op;
  if (isAssignOp(cur().Kind, Op)) {
    SourceLocation Loc = cur().Loc;
    consume();
    NestingGuard Guard(*this);
    Expr *RHS = parseAssign(); // Right-associative.
    return nest(Ctx.create<AssignExpr>(Op, LHS, RHS, Loc));
  }
  if (cur().is(TokenKind::Question)) {
    SourceLocation Loc = cur().Loc;
    consume();
    NestingGuard Guard(*this);
    Expr *Then = parseExpr();
    expect(TokenKind::Colon, "in conditional expression");
    Expr *Else = parseAssign();
    return nest(Ctx.create<ConditionalExpr>(LHS, Then, Else, Loc));
  }
  return LHS;
}

namespace {
struct BinOpInfo {
  BinaryOpKind Op;
  int Prec;
};
} // namespace

static bool binaryOpInfo(TokenKind K, BinOpInfo &Info) {
  switch (K) {
  case TokenKind::PipePipe: Info = {BinaryOpKind::LOr, 1}; return true;
  case TokenKind::AmpAmp: Info = {BinaryOpKind::LAnd, 2}; return true;
  case TokenKind::Pipe: Info = {BinaryOpKind::BitOr, 3}; return true;
  case TokenKind::Caret: Info = {BinaryOpKind::BitXor, 4}; return true;
  case TokenKind::Amp: Info = {BinaryOpKind::BitAnd, 5}; return true;
  case TokenKind::EqualEqual: Info = {BinaryOpKind::EQ, 6}; return true;
  case TokenKind::ExclaimEqual: Info = {BinaryOpKind::NE, 6}; return true;
  case TokenKind::Less: Info = {BinaryOpKind::LT, 7}; return true;
  case TokenKind::Greater: Info = {BinaryOpKind::GT, 7}; return true;
  case TokenKind::LessEqual: Info = {BinaryOpKind::LE, 7}; return true;
  case TokenKind::GreaterEqual: Info = {BinaryOpKind::GE, 7}; return true;
  case TokenKind::LessLess: Info = {BinaryOpKind::Shl, 8}; return true;
  case TokenKind::GreaterGreater: Info = {BinaryOpKind::Shr, 8}; return true;
  case TokenKind::Plus: Info = {BinaryOpKind::Add, 9}; return true;
  case TokenKind::Minus: Info = {BinaryOpKind::Sub, 9}; return true;
  case TokenKind::Star: Info = {BinaryOpKind::Mul, 10}; return true;
  case TokenKind::Slash: Info = {BinaryOpKind::Div, 10}; return true;
  case TokenKind::Percent: Info = {BinaryOpKind::Rem, 10}; return true;
  default: return false;
  }
}

Expr *Parser::parseBinary(int MinPrec) {
  Expr *LHS = parseUnary();
  for (;;) {
    BinOpInfo Info;
    if (!binaryOpInfo(cur().Kind, Info) || Info.Prec < MinPrec)
      return LHS;
    SourceLocation Loc = cur().Loc;
    consume();
    Expr *RHS = parseBinary(Info.Prec + 1);
    LHS = nest(Ctx.create<BinaryExpr>(Info.Op, LHS, RHS, Loc));
  }
}

Expr *Parser::parseUnary() {
  NestingGuard Guard(*this);
  SourceLocation Loc = cur().Loc;
  switch (cur().Kind) {
  case TokenKind::Minus:
    consume();
    return nest(Ctx.create<UnaryExpr>(UnaryOpKind::Minus, parseUnary(), Loc));
  case TokenKind::Exclaim:
    consume();
    return nest(
        Ctx.create<UnaryExpr>(UnaryOpKind::Not, parseUnary(), Loc));
  case TokenKind::Tilde:
    consume();
    return nest(
        Ctx.create<UnaryExpr>(UnaryOpKind::BitNot, parseUnary(), Loc));
  case TokenKind::Star:
    consume();
    return nest(
        Ctx.create<UnaryExpr>(UnaryOpKind::Deref, parseUnary(), Loc));
  case TokenKind::PlusPlus:
    consume();
    return nest(
        Ctx.create<UnaryExpr>(UnaryOpKind::PreInc, parseUnary(), Loc));
  case TokenKind::MinusMinus:
    consume();
    return nest(
        Ctx.create<UnaryExpr>(UnaryOpKind::PreDec, parseUnary(), Loc));
  case TokenKind::Amp: {
    consume();
    // Pointer-to-member constant `&C::m`.
    if (cur().is(TokenKind::Identifier) && tok(1).is(TokenKind::ColonColon) &&
        tok(2).is(TokenKind::Identifier) && isTypeName(cur()) &&
        tok(3).isNot(TokenKind::LParen)) {
      std::string ClassName(cur().Text);
      consume();
      consume();
      std::string MemberName(cur().Text);
      consume();
      return Ctx.create<MemberPointerConstantExpr>(std::move(ClassName),
                                                   std::move(MemberName),
                                                   Loc);
    }
    return nest(
        Ctx.create<UnaryExpr>(UnaryOpKind::AddrOf, parseUnary(), Loc));
  }
  case TokenKind::KwNew:
    return parseNew();
  case TokenKind::KwDelete: {
    consume();
    bool IsArray = false;
    if (tryConsume(TokenKind::LBracket)) {
      expect(TokenKind::RBracket, "in 'delete[]'");
      IsArray = true;
    }
    return nest(Ctx.create<DeleteExpr>(parseUnary(), IsArray, Loc));
  }
  case TokenKind::KwSizeof: {
    consume();
    expect(TokenKind::LParen, "after 'sizeof'");
    Expr *Result = nullptr;
    if (startsType()) {
      const Type *Ty = parseType();
      Result = Ctx.create<SizeofExpr>(Ty, nullptr, Loc);
    } else {
      Expr *Operand = parseExpr();
      Result = nest(Ctx.create<SizeofExpr>(nullptr, Operand, Loc));
    }
    expect(TokenKind::RParen, "after 'sizeof' operand");
    return Result;
  }
  case TokenKind::KwStaticCast:
  case TokenKind::KwReinterpretCast: {
    CastStyle Style = cur().is(TokenKind::KwStaticCast)
                          ? CastStyle::Static
                          : CastStyle::Reinterpret;
    consume();
    expect(TokenKind::Less, "after cast keyword");
    const Type *Ty = parseType();
    expect(TokenKind::Greater, "after cast target type");
    expect(TokenKind::LParen, "in named cast");
    Expr *Sub = parseExpr();
    expect(TokenKind::RParen, "in named cast");
    if (!Ty)
      return Sub;
    return nest(Ctx.create<CastExpr>(Style, Ty, Sub, Loc));
  }
  case TokenKind::LParen:
    // C-style cast: `(T)unary`.
    if (startsType(1)) {
      consume();
      const Type *Ty = parseType();
      expect(TokenKind::RParen, "after cast type");
      Expr *Sub = parseUnary();
      if (!Ty)
        return Sub;
      return nest(Ctx.create<CastExpr>(CastStyle::CStyle, Ty, Sub, Loc));
    }
    return parsePostfix();
  default:
    return parsePostfix();
  }
}

Expr *Parser::parsePostfix() {
  Expr *E = parsePrimary();
  for (;;) {
    SourceLocation Loc = cur().Loc;
    switch (cur().Kind) {
    case TokenKind::Period:
    case TokenKind::Arrow: {
      bool IsArrow = cur().is(TokenKind::Arrow);
      consume();
      if (cur().isNot(TokenKind::Identifier)) {
        Diags.error(cur().Loc, "expected member name");
        return E;
      }
      std::string Name(cur().Text);
      consume();
      std::string Qualifier;
      if (cur().is(TokenKind::ColonColon) &&
          tok(1).is(TokenKind::Identifier)) {
        // Qualified access `e.C::m`: the first identifier was the
        // qualifier.
        Qualifier = std::move(Name);
        consume(); // ::
        Name = std::string(cur().Text);
        consume();
      }
      E = nest(Ctx.create<MemberExpr>(E, IsArrow, std::move(Name),
                                      std::move(Qualifier), Loc));
      break;
    }
    case TokenKind::PeriodStar:
    case TokenKind::ArrowStar: {
      bool IsArrow = cur().is(TokenKind::ArrowStar);
      consume();
      Expr *Pointer = parseUnary();
      E = nest(Ctx.create<MemberPointerAccessExpr>(E, Pointer, IsArrow, Loc));
      break;
    }
    case TokenKind::LBracket: {
      consume();
      Expr *Index = parseExpr();
      expect(TokenKind::RBracket, "after subscript");
      E = nest(Ctx.create<SubscriptExpr>(E, Index, Loc));
      break;
    }
    case TokenKind::LParen: {
      std::vector<Expr *> Args = parseCallArgs();
      E = nest(Ctx.create<CallExpr>(E, std::move(Args), Loc));
      break;
    }
    case TokenKind::PlusPlus:
      consume();
      E = nest(Ctx.create<UnaryExpr>(UnaryOpKind::PostInc, E, Loc));
      break;
    case TokenKind::MinusMinus:
      consume();
      E = nest(Ctx.create<UnaryExpr>(UnaryOpKind::PostDec, E, Loc));
      break;
    default:
      return E;
    }
  }
}

std::vector<Expr *> Parser::parseCallArgs() {
  std::vector<Expr *> Args;
  expect(TokenKind::LParen, "to begin argument list");
  if (cur().isNot(TokenKind::RParen)) {
    do
      Args.push_back(parseAssign());
    while (tryConsume(TokenKind::Comma));
  }
  expect(TokenKind::RParen, "to end argument list");
  return Args;
}

Expr *Parser::parseNew() {
  SourceLocation Loc = cur().Loc;
  consume(); // new

  const Type *Ty = nullptr;
  switch (cur().Kind) {
  case TokenKind::KwBool: Ty = Ctx.boolType(); consume(); break;
  case TokenKind::KwChar: Ty = Ctx.charType(); consume(); break;
  case TokenKind::KwInt: Ty = Ctx.intType(); consume(); break;
  case TokenKind::KwDouble: Ty = Ctx.doubleType(); consume(); break;
  case TokenKind::Identifier: {
    ClassDecl *CD = lookupClass(std::string(cur().Text));
    if (!CD) {
      Diags.error(cur().Loc,
                  "unknown type '" + std::string(cur().Text) + "' in new");
      return Ctx.create<NullptrLiteralExpr>(Loc);
    }
    Ty = Ctx.classType(CD);
    consume();
    break;
  }
  default:
    Diags.error(cur().Loc, "expected type after 'new'");
    return Ctx.create<NullptrLiteralExpr>(Loc);
  }
  while (tryConsume(TokenKind::Star))
    Ty = Ctx.pointerType(Ty);

  Expr *ArraySize = nullptr;
  std::vector<Expr *> CtorArgs;
  if (tryConsume(TokenKind::LBracket)) {
    ArraySize = parseExpr();
    expect(TokenKind::RBracket, "after array-new extent");
  } else if (cur().is(TokenKind::LParen)) {
    CtorArgs = parseCallArgs();
  }
  return nest(Ctx.create<NewExpr>(Ty, std::move(CtorArgs), ArraySize, Loc));
}

Expr *Parser::parsePrimary() {
  SourceLocation Loc = cur().Loc;
  switch (cur().Kind) {
  case TokenKind::IntLiteral: {
    long long Value = cur().IntValue;
    consume();
    return Ctx.create<IntLiteralExpr>(Value, Loc);
  }
  case TokenKind::DoubleLiteral: {
    double Value = cur().DoubleValue;
    consume();
    return Ctx.create<DoubleLiteralExpr>(Value, Loc);
  }
  case TokenKind::CharLiteral: {
    char Value = static_cast<char>(cur().IntValue);
    consume();
    return Ctx.create<CharLiteralExpr>(Value, Loc);
  }
  case TokenKind::StringLiteral: {
    std::string Value = cur().StringValue;
    consume();
    return Ctx.create<StringLiteralExpr>(std::move(Value), Loc);
  }
  case TokenKind::KwTrue:
    consume();
    return Ctx.create<BoolLiteralExpr>(true, Loc);
  case TokenKind::KwFalse:
    consume();
    return Ctx.create<BoolLiteralExpr>(false, Loc);
  case TokenKind::KwNullptr:
    consume();
    return Ctx.create<NullptrLiteralExpr>(Loc);
  case TokenKind::KwThis:
    consume();
    return Ctx.create<ThisExpr>(Loc);
  case TokenKind::LParen: {
    consume();
    Expr *E = parseExpr();
    expect(TokenKind::RParen, "after parenthesized expression");
    return E;
  }
  case TokenKind::Identifier: {
    std::string Name(cur().Text);
    consume();
    return Ctx.create<DeclRefExpr>(std::move(Name), Loc);
  }
  default:
    Diags.error(Loc, std::string("expected expression, found ") +
                         tokenKindName(cur().Kind));
    consume();
    return Ctx.create<IntLiteralExpr>(0, Loc);
  }
}

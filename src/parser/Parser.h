//===-- parser/Parser.h - MiniC++ parser ------------------------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for MiniC++. The parser is purely syntactic:
/// it resolves class names (needed to disambiguate declarations from
/// expressions and casts from parenthesized expressions) but leaves
/// variable references, member lookups, and types of expressions to Sema.
/// It binds each class and free function to its symbol in the
/// ASTContext, where Sema finds them.
///
/// Classes must be declared (at least forward-declared) before their names
/// are used as types; functions called before their definition need a
/// prototype. Method bodies may reference members declared later in their
/// class because resolution happens in the later Sema pass.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_PARSER_PARSER_H
#define DMM_PARSER_PARSER_H

#include "ast/ASTContext.h"
#include "lexer/Token.h"

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace dmm {

class DiagnosticsEngine;
class SourceManager;

/// Parses one or more source buffers into an ASTContext's translation
/// unit.
class Parser {
public:
  /// Deepest nesting the parser accepts, counted both as open
  /// statements, parentheses, prefix operators and assignments on the
  /// parser's own stack, and as the height of any expression tree (a
  /// left-associative chain such as `1+1+...+1` is built without
  /// recursion but is as deep as it is long). Sema, the analysis, the
  /// printer and both engines recurse over the AST, so a deeper input is
  /// rejected with a "nesting too deep" error instead of overflowing the
  /// host stack.
  static constexpr unsigned kMaxNestingDepth = 1000;

  Parser(ASTContext &Ctx, const SourceManager &SM, DiagnosticsEngine &Diags);

  /// Parses a pre-lexed token stream of one buffer (the frontend lexes
  /// every file before parsing any), appending top-level declarations to
  /// the translation unit. \p Tokens must end with EndOfFile. Returns
  /// false if any syntax error was reported.
  bool parseTokens(std::vector<Token> Tokens);

private:
  /// \name Token stream helpers
  /// @{
  const Token &tok(unsigned LookAhead = 0) const;
  const Token &cur() const { return tok(0); }
  /// \p T's spelling; names in the AST are views of it.
  std::string_view text(const Token &T) const { return T.text(Buffer); }
  /// The value of IntLiteral \p T.
  long long intValue(const Token &T) const;
  void consume();
  bool tryConsume(TokenKind K);
  /// Consumes a token of kind \p K or reports an error. Returns success.
  bool expect(TokenKind K, const char *Context);
  /// Skips tokens until a likely statement/declaration boundary.
  void synchronize();
  /// @}

  /// \name Nesting budget (kMaxNestingDepth)
  /// @{
  /// RAII: one level of parser recursion. Throws once the budget is
  /// spent; parseTokens catches that and abandons the buffer.
  class NestingGuard {
  public:
    explicit NestingGuard(Parser &P);
    ~NestingGuard() { --P.Nesting; }
    NestingGuard(const NestingGuard &) = delete;
    NestingGuard &operator=(const NestingGuard &) = delete;

  private:
    Parser &P;
  };
  /// Sets \p E's height from its operands, throwing like NestingGuard
  /// when it exceeds the budget. Every expression with operands the
  /// parser builds passes through here.
  Expr *nest(Expr *E);
  /// @}

  /// \name Type-name tracking
  /// @{
  bool isTypeName(const Token &T) const;
  /// True if a type starts at lookahead \p At (builtin keyword or known
  /// class name).
  bool startsType(unsigned At = 0) const;
  /// The class that identifier \p T names so far; null if none.
  ClassDecl *lookupClass(const Token &T) const;
  /// @}

  /// \name Declarations
  /// @{
  void parseTopLevelDecl();
  void parseClass(TagKind Tag);
  void parseClassBody(ClassDecl *CD);
  void parseMember(ClassDecl *CD);
  void parseCtorInitList(ConstructorDecl *Ctor, ClassDecl *CD);
  /// Parses an out-of-line definition `C::name(...)`, `C::C(...)`, or
  /// `C::~C(...)`. \p ReturnTy is null for ctors/dtors.
  void parseOutOfLineMember(const Type *ReturnTy);
  /// Parses a function prototype/definition or global variable(s) once
  /// the leading type has been parsed.
  void parseFunctionOrGlobal(const Type *Ty);
  void parseParamList(FunctionDecl *FD);
  /// @}

  /// \name Types
  /// @{
  /// Parses a type: specifiers, base type, pointer/reference suffixes,
  /// member-pointer suffix. Returns null and diagnoses on failure.
  const Type *parseType();
  /// Parses optional declarator suffixes for a variable of base type
  /// \p Ty named at the current token: function-pointer form
  /// `(*name)(params)` or `name[N]` arrays. Points \p Name at the
  /// variable's name token, if it has one. Returns the final type.
  const Type *parseDeclarator(const Type *Ty, const Token *&Name);
  /// @}

  /// \name Statements
  /// @{
  Stmt *parseStmt();
  CompoundStmt *parseCompoundStmt();
  Stmt *parseDeclStmt();
  /// Parses `name [= init | (args)], ... ;` into PendingVars, or into
  /// the translation unit's globals.
  void parseVars(const Type *Ty, bool IsGlobal);
  Stmt *parseIfStmt();
  Stmt *parseWhileStmt();
  Stmt *parseForStmt();
  Stmt *parseReturnStmt();
  /// @}

  /// \name Expressions
  /// @{
  Expr *parseExpr();       ///< Includes comma.
  Expr *parseAssign();     ///< Assignment / conditional and below.
  Expr *parseBinary(int MinPrec);
  Expr *parseUnary();
  Expr *parsePostfix();
  Expr *parsePrimary();
  Expr *parseNew();
  std::span<Expr *> parseCallArgs();
  /// @}

  /// Moves the items that \p Pending holds past index \p First into an
  /// arena array. Child lists collect on these stacks while their
  /// children parse, so a nested list stacks above its parent's.
  template <typename T>
  std::span<T> takePending(std::vector<T> &Pending, size_t First) {
    std::span<T> List = Ctx.copyArray(
        std::span<const T>(Pending.data() + First, Pending.size() - First));
    Pending.resize(First);
    return List;
  }

  ASTContext &Ctx;
  const SourceManager &SM;
  DiagnosticsEngine &Diags;

  std::vector<Token> Tokens;
  std::string_view Buffer; ///< Text of the buffer being parsed.
  size_t Pos = 0;
  unsigned Nesting = 0; ///< Open NestingGuards.

  /// Child lists still being parsed (see takePending).
  std::vector<Expr *> PendingExprs;
  std::vector<Stmt *> PendingStmts;
  std::vector<VarDecl *> PendingVars;
};

static_assert(Parser::kMaxNestingDepth <= UINT16_MAX,
              "Expr stores its height in 16 bits");

} // namespace dmm

#endif // DMM_PARSER_PARSER_H

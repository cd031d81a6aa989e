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

#include <string>
#include <unordered_map>
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

  /// Parses buffer \p FileID, appending top-level declarations to the
  /// translation unit. Returns false if any syntax error was reported.
  bool parseBuffer(uint32_t FileID);

  /// Parses a pre-lexed token stream (the frontend lexes every file
  /// before parsing any). \p Tokens must end with EndOfFile. Returns
  /// false if any syntax error was reported.
  bool parseTokens(std::vector<Token> Tokens);

private:
  /// \name Token stream helpers
  /// @{
  const Token &tok(unsigned LookAhead = 0) const;
  const Token &cur() const { return tok(0); }
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
  ClassDecl *lookupClass(const std::string &Name) const;
  ClassDecl *getOrCreateClass(TagKind Tag, const std::string &Name,
                              SourceLocation Loc);
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
  /// `(*name)(params)` or `name[N]` arrays. Emits the variable name in
  /// \p Name. Returns the final type.
  const Type *parseDeclarator(const Type *Ty, std::string &Name,
                              SourceLocation &NameLoc);
  /// @}

  /// \name Statements
  /// @{
  Stmt *parseStmt();
  CompoundStmt *parseCompoundStmt();
  Stmt *parseDeclStmt();
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
  std::vector<Expr *> parseCallArgs();
  /// @}

  ASTContext &Ctx;
  const SourceManager &SM;
  DiagnosticsEngine &Diags;

  std::vector<Token> Tokens;
  size_t Pos = 0;
  unsigned StartErrors = 0;
  unsigned Nesting = 0; ///< Open NestingGuards.

  /// Class names visible so far (forward declarations included).
  std::unordered_map<std::string, ClassDecl *> ClassNames;

  /// Free-function names seen so far (prototypes and definitions), used
  /// to merge a definition into its earlier prototype.
  std::unordered_map<std::string, FunctionDecl *> FunctionNames;
};

} // namespace dmm

#endif // DMM_PARSER_PARSER_H
